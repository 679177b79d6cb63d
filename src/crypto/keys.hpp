// Simulated PKI.
//
// The paper assumes an abstract digital-signature capability plus
// Sybil-resistant unique IDs (Section II-A), which presupposes some identity
// layer. We model that layer as a KeyRegistry: a trusted oracle that derives
// a per-process secret from a system seed. Processes receive only their own
// Signer (see signer.hpp); verification recomputes the expected signature
// through the registry (from its signature memo, SignCache below, unless
// the registry was built without one) and compares in constant time. A
// registry is one run's keys: the simulator builds a new one per run, so
// its secrets, its memo and its counters never outlive the run. The
// unforgeability the protocol relies on — a Byzantine process cannot
// fabricate a correct process's signed PD — is enforced structurally
// because no code path hands one process another's secret.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/content_memo.hpp"
#include "common/ids.hpp"
#include "crypto/sha256.hpp"

namespace bftcup::crypto {

/// 64-byte signature: HMAC-SHA256 tag (32B) + redundancy digest (32B).
/// The second half mimics realistic signature sizes and doubles as a cheap
/// corruption detector in tests.
struct Signature {
  std::array<std::uint8_t, 64> bytes{};

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// The signature memo: (key seed, signer, payload) -> Signature.
///
/// Runs re-create the same signed artifacts many times: SETPDS replies
/// repeat previously seen SignedPds (Byzantine forgeries included, which
/// every delivery must reject again), and each recipient of a PBFT-DECIDE
/// certificate re-verifies the same COMMIT shares. A signature is a pure
/// function of (key seed, signer, payload), and verify is a sign plus a
/// constant-time compare, so one memo serves both directions, accepts and
/// rejects alike. Each KeyRegistry owns its memo, so the memo lives exactly
/// as long as one run's keys; a later run could reuse an entry only by
/// repeating both the seed and the graph, and keeping entries for that
/// cost more memory than the signatures it saved.
using SignCache = ContentMemo<Signature>;

class KeyRegistry {
 public:
  /// Verification counters: every verify() call, and those whose expected
  /// signature the sign memo served (no MAC recompute). They start at zero
  /// with the registry, so they count one run.
  struct VerifyStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
  };

  /// `memoize` routes sign_as and verify through the registry's sign memo.
  /// Signatures are pure functions of (seed, signer, payload), so every
  /// signature and verdict is identical with the memo or without it.
  explicit KeyRegistry(std::uint64_t system_seed, bool memoize = true);

  /// Derives (and caches) the secret for `id`: SHA-256 over (seed, id).
  [[nodiscard]] const Bytes& secret_for(ProcessId id);

  /// Verifies that `sig` is `id`'s signature over `message`: recomputes the
  /// expected signature (through the sign memo when memoizing) and compares
  /// in constant time.
  [[nodiscard]] bool verify(ProcessId id, BytesView message,
                            const Signature& sig);

  /// Computes `id`'s signature over `message` (through the sign memo when
  /// memoizing). Internal: reachable by processes only through their own
  /// Signer.
  [[nodiscard]] Signature sign_as(ProcessId id, BytesView message);

  [[nodiscard]] const VerifyStats& verify_stats() const {
    return verify_stats_;
  }

  /// The sign memo, for its byte gauge; empty when not memoizing.
  [[nodiscard]] const SignCache& sign_memo() const { return sign_memo_; }

 private:
  /// sign_as's body; `memo_hit` is set when the memo served the signature.
  [[nodiscard]] Signature memoized_signature(ProcessId id, BytesView message,
                                             bool& memo_hit);
  /// The raw HMAC computation (the memo's fill path).
  [[nodiscard]] Signature compute_signature(ProcessId id, BytesView message);

  std::uint64_t seed_;
  bool memoize_;
  std::unordered_map<ProcessId, Bytes> secrets_;
  SignCache sign_memo_;
  VerifyStats verify_stats_;
};

}  // namespace bftcup::crypto
