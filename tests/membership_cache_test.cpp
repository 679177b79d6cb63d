// The membership memos' contract: the shared evaluation memo and the
// signature memo store pure functions of immutable inputs, so results are
// bit-identical with caching on or off.
//
// 1. The per-simulation shared evaluation memo returns the cold result and
//    serves every repeated view from memory.
// 2. The signature memo serves verification accepts AND rejects without
//    changing outcomes, and its entries are bound to the key seed.
// 3. Regression: SearchOptions::exhaustive_cap >= 64 no longer shifts a
//    64-bit mask out of range (UB) — oversized caps are clamped and
//    oversized SCCs take the big-SCC certification path promptly.
#include <gtest/gtest.h>

#include "crypto/sign_cache.hpp"
#include "cup/scenario_registry.hpp"
#include "graph/generators.hpp"
#include "protocol/core.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/sink.hpp"
#include "protocol/sink_search.hpp"

namespace bftcup {
namespace {

using protocol::ExhaustiveSinkSearch;
using protocol::KnowledgeView;
using protocol::SearchOptions;
using protocol::SharedEvalCache;

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(SharedEvalCacheTest, SinkResultMatchesColdAndReportsHits) {
  const auto sys = [] {
    Rng rng(3);
    graph::generators::BftCupParams params;
    return graph::generators::random_bft_cup(params, rng);
  }();
  const KnowledgeView view = KnowledgeView::omniscient(sys.graph);
  const ExhaustiveSinkSearch search;

  SharedEvalCache cache(true);
  const auto cold = protocol::try_find_sink(view, sys.f, search);
  const auto first = protocol::try_find_sink(view, sys.f, search, &cache);
  const auto second = protocol::try_find_sink(view, sys.f, search, &cache);

  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->members, cold->members);
  EXPECT_EQ(second->members, cold->members);
  EXPECT_EQ(second->s1, cold->s1);
  EXPECT_EQ(second->s2, cold->s2);
  EXPECT_EQ(cache.stats().evaluations, 2U);
  EXPECT_EQ(cache.stats().hits, 1U);

  // Disabled memo: still counts, never hits.
  SharedEvalCache counting_only(false);
  (void)protocol::try_find_sink(view, sys.f, search, &counting_only);
  (void)protocol::try_find_sink(view, sys.f, search, &counting_only);
  EXPECT_EQ(counting_only.stats().evaluations, 2U);
  EXPECT_EQ(counting_only.stats().hits, 0U);
}

TEST(SharedEvalCacheTest, CoreResultKeyedByViewDigest) {
  const auto view_a =
      KnowledgeView::omniscient(graph::figures::fig4a().graph);
  const auto view_b =
      KnowledgeView::omniscient(graph::figures::fig4b().graph);
  const ExhaustiveSinkSearch search;
  SharedEvalCache cache(true);

  const auto a1 = protocol::try_find_core(view_a, search, &cache);
  const auto b1 = protocol::try_find_core(view_b, search, &cache);
  const auto a2 = protocol::try_find_core(view_a, search, &cache);
  EXPECT_EQ(cache.stats().evaluations, 3U);
  EXPECT_EQ(cache.stats().hits, 1U);  // only the repeated view hits
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a1->members, a2->members);
  ASSERT_TRUE(b1.has_value());
  EXPECT_NE(a1->members, b1->members);
}

TEST(SharedEvalCacheTest, RepeatedViewHitsAfterAStreakOfMisses) {
  // Four distinct same-sized views miss in a row, as during discovery
  // churn; the memo is still consulted afterwards, so the first view hits.
  std::vector<KnowledgeView> views;
  for (std::uint64_t base : {0, 100, 200, 300}) {
    graph::Digraph ring;
    for (std::uint64_t i = 1; i <= 8; ++i) {
      ring.add_edge(p(base + i), p(base + i % 8 + 1));
    }
    views.push_back(KnowledgeView::omniscient(ring));
  }
  const ExhaustiveSinkSearch search;
  SharedEvalCache cache(true);
  for (const KnowledgeView& view : views) {
    (void)protocol::try_find_sink(view, 0, search, &cache);
  }
  ASSERT_EQ(cache.stats().hits, 0U);
  const auto repeated =
      protocol::try_find_sink(views.front(), 0, search, &cache);
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(repeated.has_value(),
            protocol::try_find_sink(views.front(), 0, search).has_value());
}

TEST(SignMemoTest, VerifyServesAcceptsAndRejectsFromTheSignMemo) {
  crypto::SignCache memo;
  crypto::KeyRegistry registry(42);
  registry.attach_sign_cache(&memo);
  crypto::KeyRegistry bare(42);  // no memo: every verify recomputes the MAC
  const Bytes payload = to_bytes("hello");
  const crypto::Signature good = registry.sign_as(p(1), payload);
  crypto::Signature flipped = good;
  flipped.bytes[0] ^= 0x01;

  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(registry.verify(p(1), payload, good));
    EXPECT_FALSE(registry.verify(p(1), payload, flipped));
    // The same signature under the wrong signer must fail too.
    EXPECT_FALSE(registry.verify(p(2), payload, good));
    EXPECT_TRUE(bare.verify(p(1), payload, good));
    EXPECT_FALSE(bare.verify(p(1), payload, flipped));
    EXPECT_FALSE(bare.verify(p(2), payload, good));
  }
  // Signing p(1) filled the memo, so only the first p(2) verify missed.
  EXPECT_EQ(registry.verify_stats().lookups, 9U);
  EXPECT_EQ(registry.verify_stats().hits, 8U);
  EXPECT_EQ(memo.entry_count(), 2U);
  EXPECT_EQ(bare.verify_stats().lookups, 9U);
  EXPECT_EQ(bare.verify_stats().hits, 0U);
}

TEST(SignMemoTest, RetainedEntriesAreBoundToTheKeySeed) {
  // A recycled simulator keeps its sign memo across reset(); what keeps a
  // retained entry from vouching for a signature under the next run's keys
  // is that the key seed is part of the memo key.
  crypto::SignCache memo;
  crypto::KeyRegistry registry(42);
  registry.attach_sign_cache(&memo);
  const Bytes payload = to_bytes("vote");
  const crypto::Signature under42 = registry.sign_as(p(1), payload);
  ASSERT_TRUE(registry.verify(p(1), payload, under42));
  ASSERT_EQ(registry.verify_stats().hits, 1U);

  registry.reset(43);
  ASSERT_EQ(memo.entry_count(), 1U);  // retained, not cleared
  EXPECT_FALSE(registry.verify(p(1), payload, under42));
  EXPECT_EQ(registry.verify_stats().hits, 1U);  // a miss under seed 43
  crypto::KeyRegistry fresh43(43);
  EXPECT_FALSE(fresh43.verify(p(1), payload, under42));
  const crypto::Signature under43 = registry.sign_as(p(1), payload);
  EXPECT_EQ(under43, fresh43.sign_as(p(1), payload));
  EXPECT_NE(under43, under42);
  EXPECT_TRUE(registry.verify(p(1), payload, under43));

  // Back under seed 42 the retained entry is again the right answer.
  registry.reset(42);
  EXPECT_TRUE(registry.verify(p(1), payload, under42));
  EXPECT_FALSE(registry.verify(p(1), payload, under43));
  EXPECT_EQ(memo.entry_count(), 2U);
  EXPECT_EQ(registry.verify_stats().lookups, 5U);
  EXPECT_EQ(registry.verify_stats().hits, 4U);
}

TEST(SearchOptionsTest, OversizedExhaustiveCapIsClampedNotUndefined) {
  SearchOptions huge;
  huge.exhaustive_cap = 1000;
  EXPECT_EQ(huge.validated().exhaustive_cap, 63U);

  // A 70-member cycle is one big SCC. Un-clamped, enumeration would shift a
  // 64-bit mask by 70 (UB) and then walk 2^70 subsets; clamped, the SCC
  // takes the big-SCC certification path: the component itself is evaluated
  // (a 70-cycle has κ = 1, no outside edges, so exactly (C, ∅, g=0)) and
  // every sampled C \ D is refuted (κ = 0 once the ring is broken).
  graph::Digraph cycle;
  for (std::uint64_t i = 1; i <= 70; ++i) {
    cycle.add_edge(p(i), p(i % 70 + 1));
  }
  const auto view = KnowledgeView::omniscient(cycle);
  IdSet all;
  for (std::uint64_t i = 1; i <= 70; ++i) all.insert(p(i));
  const ExhaustiveSinkSearch search(huge);
  const auto candidates = search.candidates(view);
  ASSERT_EQ(candidates.size(), 1U);
  EXPECT_EQ(candidates[0].s1, all);
  EXPECT_TRUE(candidates[0].s2.empty());
  EXPECT_EQ(candidates[0].g, 0U);
}

TEST(RunReportCacheStatsTest, SurfacedAndExcludedFromDigest) {
  const auto& registry = cup::ScenarioRegistry::paper();
  const cup::RunReport warm = registry.run("fig1b/silent", 1);
  EXPECT_GT(warm.evaluations, 0U);
  EXPECT_GT(warm.signatures_verified + warm.signatures_cached, 0U);

  const cup::Scenario cold_scenario =
      registry.builder("fig1b/silent", 1).caching(false).build();
  const cup::RunReport cold = cup::run_scenario(cold_scenario);
  EXPECT_EQ(cold.eval_cache_hits, 0U);
  EXPECT_EQ(cold.signatures_cached, 0U);
  // The cache knobs change the counters but never the replayed behavior.
  EXPECT_EQ(warm.digest(), cold.digest());
}

}  // namespace
}  // namespace bftcup
