// A small sorted-vector set used pervasively for ID sets.
//
// Protocol state (S_known, S_received, PD contents, sink/core candidates) is
// dominated by small sets that are iterated far more often than mutated; a
// sorted vector beats node-based containers for those workloads and gives
// deterministic iteration order, which the deterministic simulator relies on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace bftcup {

template <typename T>
class FlatSet {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;
  using value_type = T;

  FlatSet() = default;
  FlatSet(std::initializer_list<T> init) : items_(init) { normalize(); }
  explicit FlatSet(std::vector<T> items) : items_(std::move(items)) {
    normalize();
  }

  [[nodiscard]] bool contains(const T& v) const {
    return std::binary_search(items_.begin(), items_.end(), v);
  }

  /// Inserts `v`; returns true if it was not already present.
  bool insert(const T& v) {
    auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it != items_.end() && *it == v) return false;
    items_.insert(it, v);
    return true;
  }

  /// Inserts every element of `other`; returns the number of new elements.
  template <typename Range>
  std::size_t insert_all(const Range& other) {
    std::size_t added = 0;
    for (const auto& v : other) added += insert(v) ? 1U : 0U;
    return added;
  }

  /// Sorted-input overload: one linear merge instead of per-element binary
  /// search + memmove (O(n+m) vs O(n·m) — the S_known merges of a large-n
  /// discovery round are dominated by this call). The merge runs in place,
  /// back to front into the grown tail, so it allocates only when the
  /// vector's capacity must grow, and not at all when nothing is new.
  std::size_t insert_all(const FlatSet& other) {
    const std::vector<T>& add = other.items_;
    std::size_t added = 0;
    for (auto a = items_.begin(), b = add.begin(); b != add.end();) {
      if (a == items_.end() || *b < *a) {
        ++added;
        ++b;
      } else {
        if (!(*a < *b)) ++b;
        ++a;
      }
    }
    if (added == 0) return 0;

    std::size_t i = items_.size();  // items_[0, i) not yet placed
    std::size_t j = add.size();     // add[0, j) not yet placed
    items_.resize(i + added);
    for (std::size_t out = items_.size(); out != i;) {
      // Every out slot above i takes the larger of the two tails; once
      // out == i the rest of items_ is already where it belongs.
      if (i == 0 || items_[i - 1] < add[j - 1]) {
        items_[--out] = add[--j];
      } else {
        if (!(add[j - 1] < items_[i - 1])) --j;  // equal: keep one copy
        items_[--out] = std::move(items_[--i]);
      }
    }
    return added;
  }

  /// Removes `v`; returns true if it was present.
  bool erase(const T& v) {
    auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it == items_.end() || *it != v) return false;
    items_.erase(it);
    return true;
  }

  /// Pre-allocates capacity for `n` elements (hot enumeration loops build
  /// many small sets of a known size).
  void reserve(std::size_t n) { items_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] const std::vector<T>& values() const { return items_; }
  void clear() { items_.clear(); }

  [[nodiscard]] bool is_subset_of(const FlatSet& other) const {
    return std::includes(other.items_.begin(), other.items_.end(),
                         items_.begin(), items_.end());
  }

  [[nodiscard]] FlatSet set_union(const FlatSet& other) const {
    FlatSet out;
    std::set_union(items_.begin(), items_.end(), other.items_.begin(),
                   other.items_.end(), std::back_inserter(out.items_));
    return out;
  }

  [[nodiscard]] FlatSet set_difference(const FlatSet& other) const {
    FlatSet out;
    std::set_difference(items_.begin(), items_.end(), other.items_.begin(),
                        other.items_.end(), std::back_inserter(out.items_));
    return out;
  }

  [[nodiscard]] FlatSet set_intersection(const FlatSet& other) const {
    FlatSet out;
    std::set_intersection(items_.begin(), items_.end(), other.items_.begin(),
                          other.items_.end(), std::back_inserter(out.items_));
    return out;
  }

  friend bool operator==(const FlatSet&, const FlatSet&) = default;

  /// Lexicographic order (so FlatSets can key std::map / sort candidates).
  friend bool operator<(const FlatSet& a, const FlatSet& b) {
    return a.items_ < b.items_;
  }

 private:
  void normalize() {
    std::sort(items_.begin(), items_.end());
    items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
  }

  std::vector<T> items_;
};

}  // namespace bftcup
