// A small sorted-vector map, sibling of FlatSet.
//
// The simulator's trace records (decisions, memberships) hold at most one
// entry per process, are written once and read many times, and — unlike
// node-based std::map — want reserve() so a recycled run context can
// pre-size them from scenario hints.
// Entries are kept sorted by key, so iteration order matches std::map and
// the digest serialization that was pinned on it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace bftcup {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  void reserve(std::size_t n) { items_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  [[nodiscard]] const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != items_.end();
  }

  [[nodiscard]] const V& at(const K& key) const {
    auto it = find(key);
    assert(it != items_.end() && "FlatMap::at: missing key");
    return it->second;
  }

  /// Inserts (key, value) if the key is absent — std::map::emplace
  /// semantics, which the trace relies on to keep only a process's first
  /// decision. Returns true on insertion.
  bool emplace(const K& key, V value) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return false;
    items_.emplace(it, key, std::move(value));
    return true;
  }

  void clear() { items_.clear(); }

 private:
  [[nodiscard]] auto lower_bound(const K& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& entry, const K& k) { return entry.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace bftcup
