// Deterministic byte-level Byzantine wire mutation (hostile-wire layer).
//
// The simulator's channels are reliable and authenticated; every byte a
// node decodes was produced by our own encoder. WireMutator drops that
// assumption at the delivery seam: per (message, delivery) it can truncate
// the encoded frame, flip bits, splice two captured frames together,
// duplicate, replay a stale frame, or synthesize garbage. Mutation operates
// on the *encoded bytes* (msg/wire.hpp), so every hostile frame exercises
// the real codec::Decoder and message-parse path, and a frame the decoder
// rejects is counted and dropped instead of delivered.
//
// Determinism contract: the mutator owns a dedicated Rng derived from the
// simulator seed and draws only at process() calls, which the simulator
// issues in its deterministic delivery order — so the whole mutation
// schedule is a pure function of (scenario, seed) and replays
// bit-identically at any thread count. With `enabled` false the simulator
// never constructs a mutator and never draws: the layer costs nothing and
// every pre-existing digest is unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/random.hpp"
#include "msg/message.hpp"

namespace bftcup::sim {

enum class WireMutationKind : std::uint8_t {
  kTruncate,   ///< cut the frame short (partial read / torn write)
  kBitFlip,    ///< flip 1-4 random bits in place
  kSplice,     ///< prefix of this frame + suffix of a captured frame
  kDuplicate,  ///< deliver the frame twice
  kReplay,     ///< deliver a stale captured frame instead
  kGarbage,    ///< replace the frame with random bytes
};

inline constexpr std::size_t kWireMutationKindCount = 6;

/// Mask with every mutation kind enabled (bit i = WireMutationKind i).
inline constexpr std::uint32_t kAllWireMutationKinds =
    (1u << kWireMutationKindCount) - 1;

/// Mask with every MsgType targeted (bit i = MsgType i).
inline constexpr std::uint32_t kAllWireMsgTypes =
    (1u << msg::kMsgTypeCount) - 1;

[[nodiscard]] const char* to_string(WireMutationKind kind);

struct WireConfig {
  /// Master switch. Off = the simulator delivers structs directly, no
  /// encode/decode, no RNG draws, digests untouched.
  bool enabled = false;
  /// Per-delivery mutation probability in [0, 1]. Rate 0 with `enabled`
  /// still routes targeted deliveries through encode -> decode (the wire
  /// path itself is exercised) but never perturbs a frame.
  double rate = 0.0;
  /// Enabled mutation kinds (bit i = WireMutationKind i). Must be a
  /// non-empty subset of kAllWireMutationKinds.
  std::uint32_t kind_mask = kAllWireMutationKinds;
  /// Targeted message types (bit i = MsgType i). Untargeted types bypass
  /// the wire path entirely.
  std::uint32_t type_mask = kAllWireMsgTypes;
};

class WireMutator {
 public:
  WireMutator(WireConfig config, std::uint64_t sim_seed);

  [[nodiscard]] bool targets(msg::MsgType type) const {
    return (config_.type_mask >> static_cast<std::size_t>(type) & 1u) != 0;
  }

  struct Result {
    /// The applied mutation, nullopt when the frame passed untouched.
    std::optional<WireMutationKind> kind;
    /// Frames to deliver in place of the original (0, 1, or 2 entries —
    /// truncate-to-nothing yields an empty undecodable frame, duplicate
    /// yields two).
    std::vector<Bytes> frames;
  };

  /// Consumes one targeted delivery's encoded frame. Captures the pristine
  /// frame in a small ring (splice/replay material), then draws the
  /// mutation schedule. Deterministic given construction inputs and call
  /// order.
  [[nodiscard]] Result process(BytesView frame);

 private:
  [[nodiscard]] Bytes mutate_bytes(BytesView frame, WireMutationKind kind);

  WireConfig config_;
  Rng rng_;
  std::vector<WireMutationKind> enabled_kinds_;
  /// Ring of recently captured pristine frames (splice/replay material).
  std::vector<Bytes> captured_;
  std::size_t ring_next_ = 0;
};

}  // namespace bftcup::sim
