// Seeded randomized equivalence of every blocked-bitset kernel
// (common/bitset64.hpp) against the scalar FlatSet reference, plus the
// adaptive probe's representation invariants. Runs under ASan in the
// default preset and under the tsan preset (the kernels are meant for
// shared read-only snapshots, so the suite doubles as the data-race
// canary for them).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitset64.hpp"
#include "common/flat_set.hpp"
#include "common/random.hpp"

namespace bftcup {
namespace {

/// A random bit universe of `bits` bits at roughly `density` (percent),
/// returned both ways: as a BitSet and as the sorted index list the scalar
/// reference operates on.
struct Universe {
  BitSet bits;
  std::vector<std::size_t> indices;
};

Universe make_universe(std::size_t bits, unsigned density_pct, Rng& rng) {
  Universe u;
  u.bits.reset_bits(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.next_below(100) < density_pct) {
      u.bits.set(i);
      u.indices.push_back(i);
    }
  }
  return u;
}

std::vector<std::size_t> to_indices(const BitSet& bits) {
  std::vector<std::size_t> out;
  bits.for_each_set([&](std::size_t i) { out.push_back(i); });
  return out;
}

// Universe sizes straddle the word boundary: empty, single partial word,
// exactly one word, unaligned multi-word tails, and a larger block.
const std::size_t kSizes[] = {0, 1, 63, 64, 65, 127, 200, 1024, 4096 + 17};

TEST(BitsetKernelTest, RandomizedEquivalenceAgainstScalarReference) {
  Rng rng(2024);
  for (const std::size_t bits : kSizes) {
    for (const unsigned density : {0U, 10U, 50U, 100U}) {
      const Universe a = make_universe(bits, density, rng);
      const Universe b = make_universe(bits, 100U - density, rng);

      // count
      EXPECT_EQ(a.bits.count(), a.indices.size());

      // intersect / intersect_count
      std::vector<std::size_t> want_and;
      std::set_intersection(a.indices.begin(), a.indices.end(),
                            b.indices.begin(), b.indices.end(),
                            std::back_inserter(want_and));
      EXPECT_EQ(a.bits.intersect_count(b.bits), want_and.size());
      BitSet scratch = a.bits;
      scratch.intersect_with(b.bits);
      EXPECT_EQ(to_indices(scratch), want_and);

      // union
      std::vector<std::size_t> want_or;
      std::set_union(a.indices.begin(), a.indices.end(), b.indices.begin(),
                     b.indices.end(), std::back_inserter(want_or));
      scratch = a.bits;
      scratch.union_with(b.bits);
      EXPECT_EQ(to_indices(scratch), want_or);

      // difference
      std::vector<std::size_t> want_diff;
      std::set_difference(a.indices.begin(), a.indices.end(),
                          b.indices.begin(), b.indices.end(),
                          std::back_inserter(want_diff));
      scratch = a.bits;
      scratch.difference_with(b.bits);
      EXPECT_EQ(to_indices(scratch), want_diff);

      // is_subset
      const bool want_subset = std::includes(b.indices.begin(),
                                             b.indices.end(),
                                             a.indices.begin(),
                                             a.indices.end());
      EXPECT_EQ(a.bits.is_subset_of(b.bits), want_subset);
      BitSet both = a.bits;
      both.union_with(b.bits);
      EXPECT_TRUE(a.bits.is_subset_of(both));
      EXPECT_TRUE(b.bits.is_subset_of(both));

      // intersects
      EXPECT_EQ(bitset_kernel::intersects(a.bits.data(), b.bits.data(),
                                          a.bits.word_count()),
                !want_and.empty());

      // test() against membership, including the unset tail positions.
      for (std::size_t i = 0; i < bits; ++i) {
        EXPECT_EQ(a.bits.test(i),
                  std::binary_search(a.indices.begin(), a.indices.end(), i));
      }
    }
  }
}

TEST(BitsetKernelTest, TailBitsStayZeroThroughMutation) {
  // 65 bits -> two words, 63 tail bits in the second. Every mutator must
  // keep the tail zero or whole-word kernels would report phantom members.
  BitSet a;
  a.reset_bits(65);
  for (std::size_t i = 0; i < 65; ++i) a.set(i);
  EXPECT_EQ(a.count(), 65U);
  BitSet b;
  b.reset_bits(65);
  b.set(64);
  b.union_with(a);
  EXPECT_EQ(b.count(), 65U);
  b.difference_with(a);
  EXPECT_EQ(b.count(), 0U);
  EXPECT_TRUE(b.is_subset_of(a));
}

TEST(BitsetKernelTest, ResetKeepsCapacityAndClearsContent) {
  BitSet a;
  a.reset_bits(256);
  for (std::size_t i = 0; i < 256; i += 3) a.set(i);
  a.reset_bits(64);
  EXPECT_EQ(a.count(), 0U);
  EXPECT_EQ(a.word_count(), 1U);
  a.set(63);
  EXPECT_TRUE(a.test(63));
}

TEST(BitSpanTest, BorrowsWithoutCopying) {
  BitSet a;
  a.reset_bits(130);
  a.set(0);
  a.set(64);
  a.set(129);
  const BitSpan span = a.span();
  EXPECT_EQ(span.count(), 3U);
  EXPECT_TRUE(span.test(64));
  EXPECT_FALSE(span.test(65));
  EXPECT_FALSE(span.test(10'000));  // out of range -> false, not UB
}

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
    const std::uint64_t span =
        set.values().back().raw() - set.values().front().raw() + 1;
    const bool expect_dense =
        set.size() >= AdaptiveIdProbe::kDenseMinSize &&
        span <= set.size() * AdaptiveIdProbe::kDenseMaxSpread;
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
