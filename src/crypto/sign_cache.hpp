// The signature memo: (key seed, signer, payload) -> Signature.
//
// The simulation re-creates the same signed artifacts many times: every
// SETPDS reply repeats previously seen SignedPds (including Byzantine
// forgeries, which honest nodes must reject on every delivery), every
// PBFT-DECIDE certificate re-verifies the same quorum of COMMIT shares at
// each recipient, and a recycled run context replays whole runs whose
// artifacts are byte-identical. Signing is a pure function of (key seed,
// signer, payload) under the simulated PKI, and KeyRegistry::verify is a
// sign plus a constant-time compare, so this one memo serves both
// directions: a verify whose expected signature is memoized costs a lookup
// and a 64-byte compare instead of the SHA-256 passes, accepts and rejects
// alike.
//
// Keys are the raw tuples themselves, bucketed by a fast non-cryptographic
// hash and compared byte-for-byte on lookup. This is deliberately NOT a
// digest-trusting design: a hash collision degrades to an equality check,
// never to a wrong answer. Binding the key seed makes entries valid
// forever, so a recycled Simulator keeps the memo across reset() and
// replayed runs perform near-zero crypto. One instance per Simulator:
// single-threaded by construction.
#pragma once

#include <cstring>
#include <unordered_map>

#include "common/fnv.hpp"
#include "common/thread_annotations.hpp"
#include "crypto/keys.hpp"

namespace bftcup::crypto {

namespace detail {

/// Owning memo key: every input a signature depends on.
struct SigMemoKey {
  std::uint64_t seed = 0;
  std::uint64_t signer = 0;
  Bytes payload;

  friend bool operator==(const SigMemoKey&, const SigMemoKey&) = default;
};

/// Borrowed view of a key for heterogeneous (allocation-free) lookup.
struct SigMemoKeyView {
  std::uint64_t seed = 0;
  std::uint64_t signer = 0;
  BytesView payload;
};

/// FNV-1a (common/fnv.hpp) over the concatenated key fields. Bucketing
/// only — equality is always a full byte compare, so hash quality affects
/// speed, never soundness.
struct SigMemoHash {
  using is_transparent = void;

  std::size_t operator()(const SigMemoKeyView& k) const {
    std::size_t h = fnv1a_mix_u64(kFnvOffsetBasis, k.seed);
    h = fnv1a_mix_u64(h, k.signer);
    return fnv1a_mix(h, k.payload.data(), k.payload.size());
  }
  std::size_t operator()(const SigMemoKey& k) const {
    return operator()(SigMemoKeyView{k.seed, k.signer, k.payload});
  }
};

struct SigMemoEq {
  using is_transparent = void;

  bool operator()(const SigMemoKey& a, const SigMemoKey& b) const {
    return a == b;
  }
  bool operator()(const SigMemoKeyView& a, const SigMemoKey& b) const {
    return a.seed == b.seed && a.signer == b.signer &&
           a.payload.size() == b.payload.size() &&
           std::memcmp(a.payload.data(), b.payload.data(), a.payload.size()) ==
               0;
  }
  bool operator()(const SigMemoKey& a, const SigMemoKeyView& b) const {
    return operator()(b, a);
  }
};

}  // namespace detail

/// Attached to a KeyRegistry (attach_sign_cache), which consults it on
/// every sign_as and verify and counts verify-side hits itself.
class BFTCUP_THREAD_CONFINED SignCache {
 public:
  /// The memoized signature of `signer` over `message` under key seed
  /// `seed`, or null when the memo does not hold it.
  [[nodiscard]] const Signature* find(std::uint64_t seed, ProcessId signer,
                                      BytesView message) const;

  /// Stores `sig` as that signature and returns the stored copy.
  const Signature& insert(std::uint64_t seed, ProcessId signer,
                          BytesView message, const Signature& sig);

  /// Drops every entry but keeps the hash-table buckets. Called by the
  /// recycled engine when the memo outgrows its cap, never for soundness.
  void clear() { memo_.clear(); }
  [[nodiscard]] std::size_t entry_count() const { return memo_.size(); }

 private:
  std::unordered_map<detail::SigMemoKey, Signature, detail::SigMemoHash,
                     detail::SigMemoEq>
      memo_;
};

}  // namespace bftcup::crypto
