#include "sim/wire_mutator.hpp"

namespace bftcup::sim {
namespace {

/// Capture ring capacity: enough stale material for splice/replay without
/// unbounded growth on long runs.
constexpr std::size_t kCaptureRing = 16;

/// Garbage frames are 1..kMaxGarbage random bytes — long enough to reach
/// every parse stage, short enough to stay cheap at sweep scale.
constexpr std::size_t kMaxGarbage = 96;

}  // namespace

const char* to_string(WireMutationKind kind) {
  switch (kind) {
    case WireMutationKind::kTruncate:
      return "truncate";
    case WireMutationKind::kBitFlip:
      return "bitflip";
    case WireMutationKind::kSplice:
      return "splice";
    case WireMutationKind::kDuplicate:
      return "duplicate";
    case WireMutationKind::kReplay:
      return "replay";
    case WireMutationKind::kGarbage:
      return "garbage";
  }
  return "unknown";
}

WireMutator::WireMutator(WireConfig config, std::uint64_t sim_seed)
    : config_(config),
      // Dedicated stream: the constant separates the wire schedule from the
      // simulator's own forks.
      rng_(Rng(sim_seed ^ 0xa57eb1de5eedULL).fork(0)) {
  for (std::size_t i = 0; i < kWireMutationKindCount; ++i) {
    if ((config_.kind_mask >> i & 1u) != 0) {
      enabled_kinds_.push_back(static_cast<WireMutationKind>(i));
    }
  }
  captured_.reserve(kCaptureRing);
}

WireMutator::Result WireMutator::process(BytesView frame) {
  // Capture first, mutate second: the ring holds pristine frames (that is
  // the realistic replay/splice material — bytes that really crossed the
  // wire), and the current frame is eligible as its own stale source.
  Bytes pristine(frame.begin(), frame.end());
  if (captured_.size() < kCaptureRing) {
    captured_.push_back(pristine);
  } else {
    captured_[ring_next_] = pristine;
    ring_next_ = (ring_next_ + 1) % kCaptureRing;
  }

  Result result;
  if (enabled_kinds_.empty() || !rng_.chance(config_.rate)) {
    result.frames.push_back(std::move(pristine));
    return result;
  }

  const WireMutationKind kind =
      enabled_kinds_[rng_.next_below(enabled_kinds_.size())];
  result.kind = kind;
  if (kind == WireMutationKind::kDuplicate) {
    result.frames.push_back(pristine);
    result.frames.push_back(std::move(pristine));
  } else {
    result.frames.push_back(mutate_bytes(frame, kind));
  }
  return result;
}

Bytes WireMutator::mutate_bytes(BytesView frame, WireMutationKind kind) {
  switch (kind) {
    case WireMutationKind::kTruncate: {
      // Keep a strict prefix; length 0 (empty frame) included.
      const std::size_t keep = rng_.next_below(frame.size());
      return Bytes(frame.begin(),
                   frame.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    case WireMutationKind::kBitFlip: {
      Bytes out(frame.begin(), frame.end());
      const std::size_t flips = 1 + rng_.next_below(4);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t pos = rng_.next_below(out.size());
        out[pos] ^= static_cast<std::uint8_t>(1u << rng_.next_below(8));
      }
      return out;
    }
    case WireMutationKind::kSplice: {
      // Prefix of the live frame + suffix of a captured one: field-level
      // splicing (e.g. a quorum cert grafted from an older message) without
      // the mutator knowing the frame layout.
      const Bytes& other = captured_[rng_.next_below(captured_.size())];
      const std::size_t cut_a = rng_.next_below(frame.size() + 1);
      const std::size_t cut_b = rng_.next_below(other.size() + 1);
      Bytes out(frame.begin(),
                frame.begin() + static_cast<std::ptrdiff_t>(cut_a));
      out.insert(out.end(),
                 other.begin() + static_cast<std::ptrdiff_t>(cut_b),
                 other.end());
      return out;
    }
    case WireMutationKind::kReplay:
      // The ring always holds at least the current frame, so a replay draw
      // right after construction degenerates to an identity delivery.
      return captured_[rng_.next_below(captured_.size())];
    case WireMutationKind::kGarbage: {
      Bytes out(1 + rng_.next_below(kMaxGarbage));
      for (std::uint8_t& b : out) {
        b = static_cast<std::uint8_t>(rng_.next_below(256));
      }
      return out;
    }
    case WireMutationKind::kDuplicate:
      break;  // handled in process()
  }
  return Bytes(frame.begin(), frame.end());
}

}  // namespace bftcup::sim
