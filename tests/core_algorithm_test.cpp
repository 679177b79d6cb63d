#include <gtest/gtest.h>

#include <map>

#include "graph/figures.hpp"
#include "graph/generators.hpp"
#include "protocol/core.hpp"
#include "test_util.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

const ExhaustiveSinkSearch kSearch;

TEST(CoreAlgorithmTest, Fig4aFindsCore) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig4a().graph);
  const auto core = try_find_core(view, kSearch);
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->members, (IdSet{p(1), p(2), p(3), p(4)}));
  EXPECT_EQ(core->k(), 2U);
}

TEST(CoreAlgorithmTest, Fig4bFindsCoreWithByzantineAbsorbed) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig4b().graph);
  const auto core = try_find_core(view, kSearch);
  ASSERT_TRUE(core.has_value());
  // The protocol-level core includes Byzantine member 8 (absorbed via S2 or
  // participating in S1); the safe core is {9..12}.
  EXPECT_EQ(core->members, (IdSet{p(8), p(9), p(10), p(11), p(12)}));
  EXPECT_EQ(core->k(), 3U);
}

TEST(CoreAlgorithmTest, Fig2cTieNeverResolves) {
  // Observation 1 / Theorem 7: system AB has two tied sinks — the Core
  // algorithm must keep waiting forever.
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig2c().graph);
  EXPECT_FALSE(try_find_core(view, kSearch).has_value());
}

TEST(CoreAlgorithmTest, Fig3aFullKnowledgeAdoptsTheFalseSink) {
  // Observation 1's hazard, executable: on the *full* fig3a graph (the
  // Byzantine 1's PD visible), the set {1,2,3,4,6} ∪ {5,7} passes isSink*
  // with k = 3 — strictly above the true sink {5,7,8} (k = 2) — so the Core
  // rule adopts the false sink. This is why fig3a is NOT a BFT-CUPFT graph
  // (the checker rejects it; see extended_osr_test.cpp).
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig3a().graph);
  const auto core = try_find_core(view, kSearch);
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->members,
            (IdSet{p(1), p(2), p(3), p(4), p(5), p(6), p(7)}));
  EXPECT_EQ(core->k(), 3U);
}

TEST(CoreAlgorithmTest, Fig3aSafeViewTiesAndNeverResolves) {
  // Without the Byzantine 1 (its PD never received), the two families tie
  // at k = 2 and the Core rule correctly keeps waiting.
  const auto inst = graph::figures::fig3a();
  const auto safe = inst.graph.induced(
      inst.graph.vertices().set_difference(inst.faulty));
  const auto view = KnowledgeView::omniscient(safe);
  EXPECT_FALSE(try_find_core(view, kSearch).has_value());
}

TEST(CoreAlgorithmTest, Fig3bFindsK5PlusAbsorbedByzantine) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig3b().graph);
  const auto core = try_find_core(view, kSearch);
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->members, view.known());  // K5 + absorbed {5,7}
  EXPECT_EQ(core->g, 2U);
}

TEST(CoreAlgorithmTest, PartialCoreKnowledgeStillResolvesToFullCore) {
  // A process that received only 3 of the 5 core PDs of fig4b absorbs the
  // remaining members through S2 — membership agreement does not require
  // equal knowledge.
  const auto inst = graph::figures::fig4b();
  KnowledgeView view(p(9), inst.graph.out_neighbors(p(9)));
  view.add_pd(p(10), inst.graph.out_neighbors(p(10)));
  view.add_pd(p(11), inst.graph.out_neighbors(p(11)));
  const auto core = try_find_core(view, kSearch);
  ASSERT_TRUE(core.has_value());
  EXPECT_EQ(core->members, (IdSet{p(8), p(9), p(10), p(11), p(12)}));
}

TEST(CoreAlgorithmTest, PeripheryOnlyKnowledgeFindsNothingStrong) {
  // A fig4b ring member that has only ring PDs: every candidate has k = 1,
  // which the Core rule's g >= 1 floor rejects (kMinG in cup/node.cpp).
  const auto inst = graph::figures::fig4b();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  view.add_pd(p(2), inst.graph.out_neighbors(p(2)));
  view.add_pd(p(3), inst.graph.out_neighbors(p(3)));
  const auto core = try_find_core(view, kSearch);
  if (core.has_value()) {
    EXPECT_LT(core->k(), 2U);
  }
}

/// The Core rule as a per-member-set aggregate: for each member set its
/// maximum g; the top set must hold its maximum strictly, and no smaller
/// subset may sit at or above it (Theorem 8(b)).
std::optional<SinkResult> aggregate_core(const KnowledgeView& view) {
  std::map<IdSet, std::size_t> max_g;
  for (const SinkCandidate& c : kSearch.candidates(view)) {
    const auto [it, fresh] = max_g.emplace(c.members(), c.g);
    if (!fresh && c.g > it->second) it->second = c.g;
  }
  if (max_g.empty()) return std::nullopt;
  auto top = max_g.begin();
  for (auto it = max_g.begin(); it != max_g.end(); ++it) {
    if (it->second > top->second) top = it;
  }
  for (const auto& [members, g] : max_g) {
    if (members == top->first) continue;
    if (g == top->second) return std::nullopt;
    if (g >= top->second && members.is_subset_of(top->first)) {
      return std::nullopt;
    }
  }
  return SinkResult{top->first, top->second};
}

TEST(CoreAlgorithmTest, TopGRuleMatchesThePerSetAggregateOnRandomViews) {
  // Partial views of 6-12 processes with sparse ids (2^64 - 1 among them),
  // unreceived PDs, self-loops and ghost ids. Both outcomes must occur: a
  // core, and a tie among candidates.
  std::size_t cores = 0;
  std::size_t ties = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::size_t n = 6 + seed % 7;
    const KnowledgeView view = test::random_view(
        rng, n, 1.5 + static_cast<double>(rng.next_below(n)) / 2);
    const auto expected = aggregate_core(view);
    const auto core = try_find_core(view, kSearch);
    ASSERT_EQ(core.has_value(), expected.has_value());
    if (core.has_value()) {
      EXPECT_EQ(core->members, expected->members);
      EXPECT_EQ(core->g, expected->g);
      ++cores;
    } else if (!kSearch.candidates(view).empty()) {
      ++ties;
    }
  }
  EXPECT_GT(cores, 0U);
  EXPECT_GT(ties, 0U);
}

class RandomCupftCoreTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCupftCoreTest, OmniscientCoreMatchesGroundTruth) {
  Rng rng(GetParam());
  graph::generators::CupftParams params;
  params.f = 1;
  params.core_size = 5;
  params.periphery = 4;
  params.byzantine_in_core = 1;
  const auto sys = graph::generators::random_cupft(params, rng);
  const auto view = KnowledgeView::omniscient(sys.graph);
  const auto core = try_find_core(view, kSearch);
  ASSERT_TRUE(core.has_value());
  // Protocol core = full core (correct + Byzantine members).
  EXPECT_EQ(core->members, sys.sink);
  EXPECT_GE(core->k(), 2U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCupftCoreTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace bftcup::protocol
