// A content-addressed memo: (word a, word b, byte string) -> V.
//
// The engine's two memos are instances: the signature memo
// (crypto::SignCache, keyed by key seed, signer and payload, and owned by
// one run's crypto::KeyRegistry) and the shared membership evaluation memo
// (protocol::SharedEvalCache, keyed by the search parameter, the strategy
// key's length, and the strategy key followed by the canonical view bytes,
// and kept by a RunContext across runs). Each stores a pure function of its
// key, so a retained entry is always the exact answer.
//
// Keys are the raw contents themselves. FNV-1a (common/fnv.hpp) only picks
// the bucket; equality compares both words and every byte, so a collision
// costs a compare, never a wrong answer. Lookups borrow the key bytes;
// only insert copies them, and takes their hash once, stored beside them.
#pragma once

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/bytes.hpp"
#include "common/fnv.hpp"
#include "common/thread_annotations.hpp"

namespace bftcup {

/// Owned by one KeyRegistry or RunContext, so never shared across threads.
template <typename V>
class BFTCUP_THREAD_CONFINED ContentMemo {
 public:
  /// The value stored under (a, b, bytes), or null when there is none.
  [[nodiscard]] const V* find(std::uint64_t a, std::uint64_t b,
                              BytesView bytes) const {
    const auto it = map_.find(KeyView{a, b, bytes});
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Stores `value` under (a, b, bytes), copying the bytes, and returns the
  /// stored value. An existing entry for the key is kept.
  const V& insert(std::uint64_t a, std::uint64_t b, BytesView bytes,
                  V value) {
    Key key{a, b, Bytes(bytes.begin(), bytes.end()), hash_of(a, b, bytes)};
    const auto [it, inserted] = map_.emplace(std::move(key), std::move(value));
    if (inserted) key_bytes_ += it->first.bytes.capacity();
    return it->second;
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// Bytes the memo holds on the heap, in O(1): the bucket array, one node
  /// per entry (a next pointer and the stored key and value; the noexcept
  /// Hash means the node caches no hash code) and the stored key bytes.
  /// Heap blocks a value owns are not counted.
  [[nodiscard]] std::size_t capacity_bytes() const {
    return map_.bucket_count() * sizeof(void*) +
           map_.size() * (sizeof(void*) + sizeof(std::pair<const Key, V>)) +
           key_bytes_;
  }

  /// Drops every entry but keeps the buckets: the eval memo's cap valve in
  /// RunContext, never needed for soundness.
  void clear() {
    map_.clear();
    key_bytes_ = 0;
  }

 private:
  static std::size_t hash_of(std::uint64_t a, std::uint64_t b,
                             BytesView bytes) noexcept {
    std::size_t h = fnv1a_mix_u64(kFnvOffsetBasis, a);
    h = fnv1a_mix_u64(h, b);
    return fnv1a_mix(h, bytes.data(), bytes.size());
  }

  struct Key {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    Bytes bytes;
    std::size_t hash = 0;  ///< hash_of(a, b, bytes), taken once at insert
  };
  /// Borrowed form, for allocation-free probes.
  struct KeyView {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    BytesView bytes;
  };
  static KeyView view(const Key& k) { return {k.a, k.b, k.bytes}; }
  static KeyView view(const KeyView& k) { return k; }

  // Both overloads are noexcept, so libstdc++ keeps no hash code of its own
  // beside each entry: a stored entry's hash is the one in its Key, and
  // entries that share a bucket are told apart by Eq alone. A broken Eq
  // therefore shows in ordinary lookups (ContentMemoTest), not only on a
  // full 64-bit hash collision.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const Key& k) const noexcept { return k.hash; }
    std::size_t operator()(const KeyView& k) const noexcept {
      return hash_of(k.a, k.b, k.bytes);
    }
  };
  struct Eq {
    using is_transparent = void;
    template <typename K1, typename K2>
    bool operator()(const K1& lhs, const K2& rhs) const {
      const KeyView x = view(lhs);
      const KeyView y = view(rhs);
      return x.a == y.a && x.b == y.b && x.bytes.size() == y.bytes.size() &&
             (x.bytes.empty() ||
              std::memcmp(x.bytes.data(), y.bytes.data(), x.bytes.size()) ==
                  0);
    }
  };

  std::unordered_map<Key, V, Hash, Eq> map_;
  std::size_t key_bytes_ = 0;  ///< capacity of every stored key's bytes
};

}  // namespace bftcup
