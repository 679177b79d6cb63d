#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "common/flat_set.hpp"
#include "common/hex.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace bftcup {
namespace {

TEST(ProcessIdTest, OrderingAndEquality) {
  EXPECT_EQ(ProcessId(3), ProcessId(3));
  EXPECT_NE(ProcessId(3), ProcessId(4));
  EXPECT_LT(ProcessId(3), ProcessId(4));
  EXPECT_EQ(to_string(ProcessId(42)), "p42");
}

TEST(ProcessIdTest, HashSpreadsSmallIds) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 100; ++i) {
    hashes.insert(std::hash<ProcessId>{}(ProcessId(i)));
  }
  EXPECT_EQ(hashes.size(), 100U);
}

TEST(FlatSetTest, InsertEraseContains) {
  IdSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(ProcessId(5)));
  EXPECT_FALSE(s.insert(ProcessId(5)));
  EXPECT_TRUE(s.insert(ProcessId(2)));
  EXPECT_TRUE(s.contains(ProcessId(5)));
  EXPECT_FALSE(s.contains(ProcessId(3)));
  EXPECT_EQ(s.size(), 2U);
  EXPECT_TRUE(s.erase(ProcessId(5)));
  EXPECT_FALSE(s.erase(ProcessId(5)));
  EXPECT_EQ(s.size(), 1U);
}

TEST(FlatSetTest, InitializerListDeduplicatesAndSorts) {
  IdSet s = {ProcessId(3), ProcessId(1), ProcessId(3), ProcessId(2)};
  EXPECT_EQ(s.size(), 3U);
  std::vector<ProcessId> order(s.begin(), s.end());
  EXPECT_EQ(order,
            (std::vector<ProcessId>{ProcessId(1), ProcessId(2), ProcessId(3)}));
}

TEST(FlatSetTest, SetAlgebra) {
  IdSet a = {ProcessId(1), ProcessId(2), ProcessId(3)};
  IdSet b = {ProcessId(2), ProcessId(3), ProcessId(4)};
  EXPECT_EQ(a.set_union(b),
            (IdSet{ProcessId(1), ProcessId(2), ProcessId(3), ProcessId(4)}));
  EXPECT_EQ(a.set_difference(b), (IdSet{ProcessId(1)}));
  EXPECT_EQ(a.set_intersection(b), (IdSet{ProcessId(2), ProcessId(3)}));
}

TEST(FlatSetTest, SubsetChecks) {
  IdSet a = {ProcessId(1), ProcessId(2)};
  IdSet b = {ProcessId(1), ProcessId(2), ProcessId(3)};
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(IdSet{}.is_subset_of(a));
}

TEST(FlatSetTest, InsertAllCountsNewElements) {
  IdSet a = {ProcessId(1)};
  IdSet b = {ProcessId(1), ProcessId(2), ProcessId(3)};
  EXPECT_EQ(a.insert_all(b), 2U);
  EXPECT_EQ(a.insert_all(b), 0U);
}

TEST(FlatSetTest, InPlaceInsertAllMatchesSetUnion) {
  // insert_all merges back to front inside the grown vector; its result
  // and count must be std::set_union's.
  const auto check = [](const IdSet& base, const IdSet& add) {
    std::vector<ProcessId> expected;
    std::set_union(base.begin(), base.end(), add.begin(), add.end(),
                   std::back_inserter(expected));
    IdSet merged = base;
    const std::size_t added = merged.insert_all(add);
    EXPECT_EQ(merged.values(), expected);
    EXPECT_EQ(added, expected.size() - base.size());
  };
  const auto ids = [](std::initializer_list<std::uint64_t> raw) {
    IdSet out;
    for (std::uint64_t r : raw) out.insert(ProcessId(r));
    return out;
  };
  check({}, {});
  check({}, ids({3, 1, 2}));
  check(ids({3, 1, 2}), {});
  check(ids({1, 2, 3}), ids({7, 8}));         // disjoint, after
  check(ids({7, 8}), ids({1, 2, 3}));         // disjoint, before
  check(ids({1, 5, 9}), ids({0, 5, 6, 10}));  // overlapping, interleaved
  check(ids({1, 2, 3, 4}), ids({2, 3}));      // all present
  check(ids({1, 2, 3}), ids({1, 2, 3}));      // equal

  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t universe = 1 + rng.next_below(64);
    IdSet base;
    IdSet add;
    const std::uint64_t base_n = rng.next_below(40);
    const std::uint64_t add_n = rng.next_below(40);
    for (std::uint64_t i = 0; i < base_n; ++i) {
      base.insert(ProcessId(rng.next_below(universe)));
    }
    for (std::uint64_t i = 0; i < add_n; ++i) {
      add.insert(ProcessId(rng.next_below(universe)));
    }
    check(base, add);
  }

  IdSet self = ids({4, 2});
  EXPECT_EQ(self.insert_all(self), 0U);
  EXPECT_EQ(self, ids({2, 4}));
}

TEST(FlatSetTest, LexicographicOrderForMapKeys) {
  IdSet a = {ProcessId(1)};
  IdSet b = {ProcessId(1), ProcessId(2)};
  IdSet c = {ProcessId(2)};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next() != b.next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13U);
  }
}

TEST(RngTest, NextInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ForkIndependentStreams) {
  Rng base(3);
  Rng s1 = base.fork(1);
  Rng s2 = base.fork(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (s1.next() != s2.next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(HexTest, RoundTrip) {
  const Bytes data = {0x00, 0x7f, 0xff, 0x10};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "007fff10");
  const auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(HexTest, RejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
  EXPECT_TRUE(from_hex("").has_value());       // empty is fine
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
}

}  // namespace
}  // namespace bftcup
