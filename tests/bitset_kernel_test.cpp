// The adaptive membership probe (common/bitset64.hpp) against the FlatSet
// it stands in for, plus FlatSet's bulk merge. Runs under the asan and tsan
// presets too.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/bitset64.hpp"
#include "common/flat_set.hpp"
#include "common/random.hpp"

namespace bftcup {
namespace {

TEST(AdaptiveIdProbeTest, AgreesWithFlatSetAcrossRepresentations) {
  Rng rng(7777);
  // Small sparse (FlatSet path), large dense (bitset path), large sparse
  // (spread guard keeps the FlatSet path).
  struct Shape {
    std::size_t size;
    std::uint64_t spread;
  };
  for (const Shape shape : {Shape{8, 4}, Shape{256, 2}, Shape{256, 1000}}) {
    IdSet set;
    const std::uint64_t base = 5000;
    while (set.size() < shape.size) {
      set.insert(ProcessId(base + rng.next_below(shape.size * shape.spread)));
    }
    const AdaptiveIdProbe probe(set);
    // Representation is a pure function of contents: dense iff the set is
    // big and its id window tight (replay determinism depends on this).
    const std::uint64_t last =
        set.values().back().raw() - set.values().front().raw();
    const bool expect_dense =
        set.size() >= AdaptiveIdProbe::kDenseMinSize &&
        last < set.size() * AdaptiveIdProbe::kDenseMaxSpread;
    EXPECT_EQ(probe.dense(), expect_dense);
    for (std::uint64_t raw = 0; raw < base + shape.size * shape.spread + 10;
         raw += 3) {
      EXPECT_EQ(probe.contains(ProcessId(raw)), set.contains(ProcessId(raw)));
    }
    // Below/above the window (dense fast-reject path).
    EXPECT_FALSE(probe.contains(ProcessId(0)));
    EXPECT_FALSE(probe.contains(ProcessId(std::uint64_t{1} << 40)));
  }
}

TEST(AdaptiveIdProbeTest, FullIdRangeStaysSparse) {
  // Ids 0 and 2^64-1 in a set of the dense minimum size: the window has
  // 2^64 slots, one more than a uint64_t can count, and is far too sparse
  // for the bitset.
  IdSet set;
  for (std::uint64_t raw = 0; raw + 1 < AdaptiveIdProbe::kDenseMinSize;
       ++raw) {
    set.insert(ProcessId(raw));
  }
  const ProcessId top(~std::uint64_t{0});
  set.insert(top);
  const AdaptiveIdProbe probe(set);
  EXPECT_FALSE(probe.dense());
  EXPECT_TRUE(probe.contains(ProcessId(0)));
  EXPECT_TRUE(probe.contains(ProcessId(62)));
  EXPECT_TRUE(probe.contains(top));
  EXPECT_FALSE(probe.contains(ProcessId(63)));
  EXPECT_FALSE(probe.contains(ProcessId(~std::uint64_t{0} - 1)));
}

TEST(FlatSetMergeTest, InsertAllMatchesElementwiseInsert) {
  Rng rng(31337);
  for (int round = 0; round < 50; ++round) {
    IdSet a, b;
    const std::size_t na = rng.next_below(200);
    const std::size_t nb = rng.next_below(200);
    for (std::size_t i = 0; i < na; ++i) a.insert(ProcessId(rng.next_below(300)));
    for (std::size_t i = 0; i < nb; ++i) b.insert(ProcessId(rng.next_below(300)));

    IdSet reference = a;
    std::size_t added_ref = 0;
    for (ProcessId id : b) added_ref += reference.insert(id) ? 1U : 0U;

    IdSet merged = a;
    const std::size_t added = merged.insert_all(b);
    EXPECT_EQ(merged, reference);
    EXPECT_EQ(added, added_ref);
  }
  // Degenerate shapes the merge special-cases.
  IdSet empty;
  IdSet one{ProcessId(5)};
  IdSet target;
  EXPECT_EQ(target.insert_all(empty), 0U);
  EXPECT_EQ(target.insert_all(one), 1U);
  EXPECT_EQ(target.insert_all(one), 0U);
}

}  // namespace
}  // namespace bftcup
