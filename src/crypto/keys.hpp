// Simulated PKI.
//
// The paper assumes an abstract digital-signature capability plus
// Sybil-resistant unique IDs (Section II-A), which presupposes some identity
// layer. We model that layer as a KeyRegistry: a trusted oracle that derives
// a per-process secret from a system seed. Processes receive only their own
// Signer (see signer.hpp); verification recomputes the expected signature
// through the registry (from its one signature memo when the simulator
// attached it, crypto/sign_cache.hpp) and compares in constant time. The
// unforgeability the protocol relies on — a Byzantine process cannot
// fabricate a correct process's signed PD — is enforced structurally
// because no code path hands one process another's secret.
//
// DESIGN.md §4.4 records this substitution.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/bytes.hpp"
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

class SignCache;  // crypto/sign_cache.hpp

class KeyRegistry {
 public:
  /// Verification counters: every verify() call, and those whose expected
  /// signature the attached sign memo served (no MAC recompute).
  /// Cumulative across reset(); the runner reports per-run deltas.
  struct VerifyStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
  };

  explicit KeyRegistry(std::uint64_t system_seed);

  /// Re-seeds the registry for a recycled run. Derived secrets are dropped
  /// when the seed changes (they belong to the old seed); an attached sign
  /// memo keeps its entries — they are keyed by (seed, signer, payload) and
  /// stay valid forever.
  void reset(std::uint64_t system_seed);

  /// Routes sign_as and verify through a signature memo
  /// (crypto/sign_cache.hpp). May be null; the cache must outlive the
  /// registry. Signatures are pure functions of (seed, signer, payload),
  /// so every signature and verdict is identical with the memo attached or
  /// not.
  void attach_sign_cache(SignCache* cache) { sign_cache_ = cache; }

  /// Derives (and caches) the secret for `id`: SHA-256 over (seed, id).
  [[nodiscard]] const Bytes& secret_for(ProcessId id);

  /// Verifies that `sig` is `id`'s signature over `message`: recomputes the
  /// expected signature (through the sign memo when one is attached) and
  /// compares in constant time.
  [[nodiscard]] bool verify(ProcessId id, BytesView message,
                            const Signature& sig);

  /// Computes `id`'s signature over `message` (through the sign memo when
  /// one is attached). Internal: reachable by processes only through their
  /// own Signer.
  [[nodiscard]] Signature sign_as(ProcessId id, BytesView message);

  [[nodiscard]] const VerifyStats& verify_stats() const {
    return verify_stats_;
  }

 private:
  /// sign_as's body; `memo_hit` is set when the memo served the signature.
  [[nodiscard]] Signature memoized_signature(ProcessId id, BytesView message,
                                             bool& memo_hit);
  /// The raw HMAC computation (the memo's fill path).
  [[nodiscard]] Signature compute_signature(ProcessId id, BytesView message);

  std::uint64_t seed_;
  std::unordered_map<ProcessId, Bytes> secrets_;
  SignCache* sign_cache_ = nullptr;
  VerifyStats verify_stats_;
};

}  // namespace bftcup::crypto
