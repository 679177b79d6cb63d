// Wire messages for every protocol in the library.
//
// One flat struct rather than a std::variant: the simulator routes opaque
// messages, Byzantine behaviors mutate fields freely, and the codec gives a
// canonical byte size for metrics. Unused fields stay empty and cost little.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "crypto/keys.hpp"

namespace bftcup::msg {

enum class MsgType : std::uint8_t {
  // Discovery (Algorithm 1).
  kGetPds,
  kSetPds,
  // Consensus wrapper (Algorithm 3).
  kGetDecidedVal,
  kDecidedVal,
  // PBFT-style consensus core among sink/core members.
  kPbftPrePrepare,
  kPbftPrepare,
  kPbftCommit,
  kPbftViewChange,
  kPbftNewView,
  /// Decision certificate: value + quorum of COMMIT signatures. Lets
  /// replicas that missed the commit quorum (e.g. partitioned by an
  /// equivocating leader) adopt the decision safely.
  kPbftDecide,
  // Unauthenticated reachable-reliable-broadcast baseline (original BFT-CUP
  // communication primitive).
  kRrbForward,
};

/// Number of MsgType values (for per-type counters, e.g. the trace's
/// message histogram). Keep in sync with the enum above.
inline constexpr std::size_t kMsgTypeCount =
    static_cast<std::size_t>(MsgType::kRrbForward) + 1;

[[nodiscard]] const char* to_string(MsgType type);

/// A participant-detector output signed by its owner: ⟨i, PD_i⟩_i.
/// Correct processes sign once at startup; Byzantine processes can sign any
/// *own* PD but cannot forge other owners' entries (Alg. 1, line 1 remark).
///
/// A SignedPd is immutable once signed, and travels as a SignedPdRef: the
/// owner's Discovery (or, on the hostile wire, decode_frame) makes the one
/// object, and every S_PD, SETPDS reply and KnowledgeView that accepts it
/// shares it by refcount instead of copying it.
struct SignedPd {
  ProcessId owner;
  IdSet pd;
  crypto::Signature sig;

  /// Canonical byte encoding of (owner, pd) — the signed payload.
  [[nodiscard]] static Bytes payload(ProcessId owner, const IdSet& pd);

  /// Same encoding written into `out` (cleared first), reusing its capacity.
  /// Verification loops thread one scratch buffer through every call instead
  /// of allocating a fresh Bytes per signature check.
  static void payload_into(ProcessId owner, const IdSet& pd, Bytes& out);

  friend bool operator==(const SignedPd&, const SignedPd&) = default;
};

/// Shared handle to one immutable SignedPd. Handles compare by identity;
/// compare `*a == *b` for contents.
using SignedPdRef = std::shared_ptr<const SignedPd>;

/// One signer's signature over a PBFT payload.
struct SigShare {
  ProcessId signer;
  crypto::Signature sig;

  friend bool operator==(const SigShare&, const SigShare&) = default;
};

/// Quorum certificate: `shares.size()` signatures over
/// pbft_payload(phase, view, value).
struct QuorumCert {
  std::uint32_t view = 0;
  Value value = kNoValue;
  std::vector<SigShare> shares;
};

struct Message {
  MsgType type = MsgType::kGetPds;

  // kSetPds: the sender's S_PD, in its order (a receiver keeps the first
  // version of each owner it accepts).
  std::vector<SignedPdRef> pds;

  // Value-carrying messages (kDecidedVal, PBFT proposals).
  Value value = kNoValue;

  // PBFT.
  std::uint32_t view = 0;
  crypto::Signature sig{};           ///< sender's signature where applicable
  std::optional<QuorumCert> cert;    ///< prepared-proof in view-change/new-view

  // kRrbForward: unsigned PD relayed along an explicit node path.
  ProcessId origin{};
  IdSet origin_pd;
  std::vector<ProcessId> path;

  /// Wire size in bytes for the bytes_sent metric: encode_frame's size
  /// minus its cert-presence byte (see msg/wire.hpp).
  [[nodiscard]] std::size_t encoded_size() const;
};

/// Canonical signed payload for PBFT phase messages.
[[nodiscard]] Bytes pbft_payload(MsgType phase, std::uint32_t view,
                                 Value value);

/// Canonical signed payload for DECIDEDVAL replies. Under reliable
/// authenticated channels the bare value was safe; a hostile wire can flip
/// value bits in transit, so the reply is signed and the fetch side counts
/// only verified votes.
[[nodiscard]] Bytes decided_val_payload(Value value);

}  // namespace bftcup::msg
