// Adaptive id-membership probe for the large-n paths.
//
// FlatSet stays the representation of record for protocol state (sorted,
// deterministic iteration, cheap at the small sizes the paper's figures
// use). Above a density threshold its binary searches stop scaling, so the
// membership/graph hot paths (Digraph::induced, KnowledgeView's
// knowledge_graph, the predicate's P3/P4 count) probe through
// AdaptiveIdProbe: binary-search FlatSet below the threshold, a dense
// window bitset above it. The representation choice is a pure function of
// the set's contents, so replays and cross-thread runs pick the same one
// (bit-replay safe); both representations answer membership identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace bftcup {

/// Adaptive membership probe over an IdSet: a dense window bitset when the
/// set is large and dense enough that word-indexed lookup beats binary
/// search, the FlatSet itself otherwise. The threshold is a pure function
/// of the contents (size and id spread), so every replay of the same set
/// picks the same representation. The probe borrows `set` and must not
/// outlive it.
class AdaptiveIdProbe {
 public:
  /// Below this size, binary search wins on cache footprint alone.
  static constexpr std::size_t kDenseMinSize = 64;
  /// Window may be at most this many times the size (1/kDenseMaxSpread
  /// density floor), bounding the bitset at size/8 words.
  static constexpr std::size_t kDenseMaxSpread = 8;

  explicit AdaptiveIdProbe(const IdSet& set) : set_(&set) {
    if (set.size() < kDenseMinSize) return;
    base_ = set.values().front().raw();
    // Compare the offset of the last id, not the window size: the window
    // over ids 0 .. 2^64-1 has 2^64 slots, which wraps to 0 in a uint64_t.
    const std::uint64_t last = set.values().back().raw() - base_;
    if (last >= set.size() * kDenseMaxSpread) return;
    span_ = last + 1;
    words_.assign((span_ + 63) / 64, 0);
    for (ProcessId id : set) {
      const std::uint64_t bit = id.raw() - base_;
      words_[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }

  [[nodiscard]] bool dense() const { return !words_.empty(); }

  [[nodiscard]] bool contains(ProcessId id) const {
    if (words_.empty()) return set_->contains(id);
    const std::uint64_t raw = id.raw();
    if (raw < base_ || raw - base_ >= span_) return false;
    const std::uint64_t bit = raw - base_;
    return (words_[bit / 64] >> (bit % 64)) & 1U;
  }

 private:
  const IdSet* set_;
  std::uint64_t base_ = 0;
  std::uint64_t span_ = 0;
  std::vector<std::uint64_t> words_;  ///< empty = sparse (binary search)
};

}  // namespace bftcup
