// Seeded decoder fuzz harness (CTest-registered; CI runs it under
// ASan/UBSan in the wire-fuzz-smoke job).
//
// decode_frame is the trust boundary the hostile-wire layer leans on: any
// byte string must come back as either nullopt or a message whose
// re-encoding is byte-identical to the input (canonical decode). The
// harness drives that boundary two ways:
//
//   1. Structured: for every MsgType, a representative frame is pushed
//      through a rate-1.0 WireMutator (all mutation kinds) 10k times and
//      every emitted frame is decoded — ≥110k mutated frames total, biased
//      toward the near-valid shapes random bytes would almost never hit.
//   2. Unstructured: 20k uniformly random byte strings straight into
//      decode_frame.
//
// "No crash" is asserted by the sanitizers; the canonical-decode property
// is asserted here. The standalone libFuzzer driver
// (tools/wire_frame_fuzzer.cpp, -DBFTCUP_BUILD_FUZZERS=ON) feeds the same
// entry point coverage-guided inputs; this harness is the deterministic
// regression floor that runs everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "msg/message.hpp"
#include "msg/wire.hpp"
#include "sim/wire_mutator.hpp"

namespace bftcup {
namespace {

crypto::Signature pattern_sig(std::uint8_t fill) {
  crypto::Signature sig;
  for (std::size_t i = 0; i < sig.bytes.size(); ++i) {
    sig.bytes[i] = static_cast<std::uint8_t>(fill + i);
  }
  return sig;
}

msg::SignedPdRef make_spd(std::uint64_t owner) {
  msg::SignedPd spd;
  spd.owner = ProcessId(owner);
  spd.pd = {ProcessId(owner), ProcessId(owner + 1), ProcessId(owner + 2)};
  spd.sig = pattern_sig(static_cast<std::uint8_t>(owner));
  return std::make_shared<const msg::SignedPd>(std::move(spd));
}

/// A representative, fully populated message of the given type: every field
/// the type carries is non-default, so mutations hit real payload bytes.
/// `salt` varies the content so the mutator's capture ring (splice/replay
/// material) holds distinct frames.
msg::Message representative(msg::MsgType type, std::uint64_t salt) {
  msg::Message m;
  m.type = type;
  switch (type) {
    case msg::MsgType::kGetPds:
      break;
    case msg::MsgType::kSetPds:
      m.pds = {make_spd(1 + salt % 5), make_spd(7 + salt % 3)};
      break;
    case msg::MsgType::kGetDecidedVal:
      break;
    case msg::MsgType::kDecidedVal:
      m.value = 1000 + salt;
      m.sig = pattern_sig(static_cast<std::uint8_t>(salt));
      break;
    case msg::MsgType::kPbftPrePrepare:
    case msg::MsgType::kPbftPrepare:
    case msg::MsgType::kPbftCommit:
      m.view = static_cast<std::uint32_t>(salt % 7);
      m.value = 2000 + salt;
      m.sig = pattern_sig(static_cast<std::uint8_t>(salt + 1));
      break;
    case msg::MsgType::kPbftViewChange:
    case msg::MsgType::kPbftNewView:
    case msg::MsgType::kPbftDecide: {
      m.view = static_cast<std::uint32_t>(1 + salt % 7);
      m.value = 3000 + salt;
      m.sig = pattern_sig(static_cast<std::uint8_t>(salt + 2));
      msg::QuorumCert cert;
      cert.view = static_cast<std::uint32_t>(salt % 7);
      cert.value = 3000 + salt;
      cert.shares = {{ProcessId(1), pattern_sig(3)},
                     {ProcessId(2), pattern_sig(4)},
                     {ProcessId(5), pattern_sig(5)}};
      m.cert = std::move(cert);
      break;
    }
    case msg::MsgType::kRrbForward:
      m.origin = ProcessId(4);
      m.origin_pd = {ProcessId(1), ProcessId(4), ProcessId(9)};
      m.path = {ProcessId(4), ProcessId(2), ProcessId(static_cast<std::uint64_t>(1 + salt % 9))};
      break;
  }
  return m;
}

/// The property under fuzz: decode never crashes, and a successful decode
/// re-encodes byte-identically (so "decoded" implies "canonical" — no two
/// distinct wire frames alias to the same message).
void check_frame(const Bytes& frame, std::uint64_t& accepted,
                 std::uint64_t& rejected) {
  const std::optional<msg::Message> decoded = msg::decode_frame(frame);
  if (!decoded.has_value()) {
    ++rejected;
    return;
  }
  ++accepted;
  ASSERT_EQ(msg::encode_frame(*decoded), frame)
      << "non-canonical decode: a " << msg::to_string(decoded->type)
      << " frame of " << frame.size() << " bytes re-encoded differently";
}

TEST(WireFuzzTest, MutatedFramesPerMsgTypeDecodeSafelyAndCanonically) {
  constexpr std::size_t kDeliveriesPerType = 10'000;
  for (std::size_t t = 0; t < msg::kMsgTypeCount; ++t) {
    const auto type = static_cast<msg::MsgType>(t);
    sim::WireConfig config;
    config.enabled = true;
    config.rate = 1.0;  // every delivery mutated
    // A distinct mutation stream per type.
    sim::WireMutator mutator(config, /*sim_seed=*/0xf022ed + t);
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t emitted = 0;
    for (std::size_t i = 0; i < kDeliveriesPerType; ++i) {
      const Bytes frame = msg::encode_frame(representative(type, i));
      const auto result = mutator.process(frame);
      ASSERT_TRUE(result.kind.has_value());
      for (const Bytes& out : result.frames) {
        ++emitted;
        check_frame(out, accepted, rejected);
        if (HasFatalFailure()) return;
      }
    }
    // Every kind was in play: duplicates/replays keep some frames valid,
    // truncation/garbage breaks others — both outcomes must occur.
    EXPECT_GE(emitted, kDeliveriesPerType / 2) << msg::to_string(type);
    EXPECT_GT(accepted, 0u) << msg::to_string(type);
    EXPECT_GT(rejected, 0u) << msg::to_string(type);
  }
}

TEST(WireFuzzTest, RandomByteStringsNeverDecodeNonCanonically) {
  Rng rng(0xbadf00d);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < 20'000; ++i) {
    const std::size_t len = rng.next_below(300);
    Bytes frame(len);
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_below(256));
    check_frame(frame, accepted, rejected);
    if (HasFatalFailure()) return;
  }
  // Uniform noise essentially never forms a valid frame; what matters is
  // that the decoder said no 20k times without tripping a sanitizer.
  EXPECT_GT(rejected, 19'000u);
}

TEST(WireFuzzTest, TruncationLadderIsRejectedOrCanonical) {
  // Every strict prefix of a valid frame, for every type — the systematic
  // version of kTruncate (a random mutator rarely covers all cut points).
  for (std::size_t t = 0; t < msg::kMsgTypeCount; ++t) {
    const Bytes full =
        msg::encode_frame(representative(static_cast<msg::MsgType>(t), 3));
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const Bytes prefix(full.begin(),
                         full.begin() + static_cast<std::ptrdiff_t>(cut));
      check_frame(prefix, accepted, rejected);
      if (HasFatalFailure()) return;
    }
    // A strict prefix can never be a valid frame (the frame format has no
    // trailing optionality: at_end() is enforced after a complete parse, so
    // a shorter parse of the same bytes would re-encode differently).
    EXPECT_EQ(accepted, 0u) << "type " << t;
  }
}

}  // namespace
}  // namespace bftcup
