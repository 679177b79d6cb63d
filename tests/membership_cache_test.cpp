// The membership memos' contract: the shared evaluation memo and the
// signature memo store pure functions of immutable inputs, so results are
// bit-identical with caching on or off.
//
// 1. ContentMemo, the type of both, tells keys apart by comparing them
//    whole, not by their hash.
// 2. The per-simulation shared evaluation memo returns the cold result and
//    serves every repeated view from memory.
// 3. The signature memo serves verification accepts AND rejects without
//    changing outcomes, and lives exactly as long as one run's keys.
// 4. Regression: SearchOptions::exhaustive_cap >= 64 no longer shifts a
//    64-bit mask out of range (UB) — oversized caps are clamped and
//    oversized SCCs take the big-SCC certification path promptly.
#include <gtest/gtest.h>

#include "common/content_memo.hpp"
#include "crypto/keys.hpp"
#include "cup/scenario_registry.hpp"
#include "graph/generators.hpp"
#include "protocol/core.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/sink.hpp"
#include "protocol/sink_search.hpp"
#include "sim/simulator.hpp"

namespace bftcup {
namespace {

using protocol::ExhaustiveSinkSearch;
using protocol::KnowledgeView;
using protocol::SearchOptions;
using protocol::SharedEvalCache;

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(ContentMemoTest, KeysDifferingInOneFieldFindTheirOwnValues) {
  // Three groups of 1,000 keys: differing only in word a, only in word b,
  // and byte strings of lengths 0-999 each a prefix of the next. That many
  // keys share buckets, so equality, not the hash, must tell them apart.
  ContentMemo<int> memo;
  const Bytes payload = to_bytes("payload");
  Bytes pattern(999);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const auto prefix = [&](int length) {
    return BytesView(pattern).first(static_cast<std::size_t>(length));
  };
  for (int i = 0; i < 1000; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    EXPECT_EQ(memo.insert(u, 0, payload, i), i);
    EXPECT_EQ(memo.insert(1000, u, payload, 1000 + i), 1000 + i);
    EXPECT_EQ(memo.insert(2000, 0, prefix(i), 2000 + i), 2000 + i);
  }
  ASSERT_EQ(memo.size(), 3000U);
  for (int i = 0; i < 1000; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    const int* by_a = memo.find(u, 0, payload);
    const int* by_b = memo.find(1000, u, payload);
    const int* by_bytes = memo.find(2000, 0, prefix(i));
    ASSERT_NE(by_a, nullptr);
    ASSERT_NE(by_b, nullptr);
    ASSERT_NE(by_bytes, nullptr);
    EXPECT_EQ(*by_a, i);
    EXPECT_EQ(*by_b, 1000 + i);
    EXPECT_EQ(*by_bytes, 2000 + i);
  }
  // An existing entry is kept, and clear() empties the memo.
  EXPECT_EQ(memo.insert(0, 0, payload, -1), 0);
  memo.clear();
  EXPECT_EQ(memo.size(), 0U);
  EXPECT_EQ(memo.find(0, 0, payload), nullptr);
  EXPECT_EQ(memo.find(2000, 0, prefix(0)), nullptr);
}

TEST(ContentMemoTest, ByteGaugeCountsStoredKeysAndKeepsBucketsOnClear) {
  // Two memos with the same number of entries, one with 1-byte keys and
  // one with 500-byte keys: the gauge rises by at least the key bytes, and
  // clear() leaves both at the same bucket-only reading.
  ContentMemo<int> short_keys;
  ContentMemo<int> long_keys;
  const std::size_t empty = long_keys.capacity_bytes();
  constexpr int kEntries = 100;
  std::size_t key_bytes = 0;
  for (int i = 0; i < kEntries; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    const Bytes key(500, static_cast<std::uint8_t>(i));
    key_bytes += key.size();
    long_keys.insert(u, 0, key, i);
    short_keys.insert(u, 0, Bytes(1, 0), i);
  }
  const std::size_t full = long_keys.capacity_bytes();
  EXPECT_GE(full, empty + key_bytes);
  EXPECT_GE(full, short_keys.capacity_bytes() + key_bytes - kEntries);
  // A kept duplicate stores nothing new.
  long_keys.insert(0, 0, Bytes(500, 0), -1);
  EXPECT_EQ(long_keys.capacity_bytes(), full);

  long_keys.clear();
  short_keys.clear();
  EXPECT_EQ(long_keys.capacity_bytes(), short_keys.capacity_bytes());
  EXPECT_LE(long_keys.capacity_bytes() + key_bytes, full);
  // The buckets stay: at least one per entry the memo held.
  EXPECT_GE(long_keys.capacity_bytes(), kEntries * sizeof(void*));
}

TEST(SharedEvalCacheTest, CanonicalViewBytesAreBigEndianWords) {
  // The memo key layout: the prefix, then known (count, ids), then the PD
  // count and each (owner, count, ids), every field one big-endian u64.
  const std::uint64_t wide = 0x0102030405060708;
  KnowledgeView view(p(1), IdSet{p(2)});
  view.add_pd(p(2), IdSet{p(1), p(wide)});
  const std::uint64_t words[] = {
      3, 1, 2, wide,  // known
      2,              // PD count
      1, 1, 2,        // owner 1, PD {2}
      2, 2, 1, wide,  // owner 2, PD {1, wide}
  };
  Bytes expected = to_bytes("s/k");
  for (std::uint64_t word : words) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      expected.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  EXPECT_EQ(protocol::view_canonical(view, "s/k"), expected);
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
  EXPECT_EQ(second->g, cold->g);
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

  // Sink and Core results share one map, and f = 0 is a legal Sink key:
  // view_a's Sink entry at f = 0 must not answer view_a's Core query.
  (void)protocol::try_find_sink(view_a, 0, search, &cache);
  const auto a1 = protocol::try_find_core(view_a, search, &cache);
  const auto b1 = protocol::try_find_core(view_b, search, &cache);
  const auto a2 = protocol::try_find_core(view_a, search, &cache);
  EXPECT_EQ(cache.stats().evaluations, 4U);
  EXPECT_EQ(cache.stats().hits, 1U);  // only the repeated view hits
  EXPECT_EQ(cache.size(), 3U);
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a1->members, a2->members);
  ASSERT_TRUE(b1.has_value());
  EXPECT_NE(a1->members, b1->members);
}

TEST(SharedEvalCacheTest, StrategiesWhoseKeysPrefixOneAnotherKeepApart) {
  // The key of bs=2 is a prefix of the key of bs=24. Sharing one memo, the
  // two strategies keep one entry each for the same view.
  const auto view = KnowledgeView::omniscient(graph::figures::fig4a().graph);
  SearchOptions two;
  two.big_scc_samples = 2;
  SearchOptions twenty_four;
  twenty_four.big_scc_samples = 24;
  const ExhaustiveSinkSearch search_two(two);
  const ExhaustiveSinkSearch search_twenty_four(twenty_four);
  ASSERT_EQ(search_twenty_four.cache_key().rfind(search_two.cache_key(), 0),
            0U);

  SharedEvalCache cache(true);
  for (int round = 0; round < 2; ++round) {
    for (const ExhaustiveSinkSearch* search :
         {&search_two, &search_twenty_four}) {
      const auto cold = protocol::try_find_core(view, *search);
      const auto memo = protocol::try_find_core(view, *search, &cache);
      ASSERT_EQ(memo.has_value(), cold.has_value());
      if (cold) {
        EXPECT_EQ(memo->members, cold->members);
        EXPECT_EQ(memo->g, cold->g);
      }
    }
  }
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.stats().evaluations, 4U);
  EXPECT_EQ(cache.stats().hits, 2U);  // the second round only
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
  crypto::KeyRegistry registry(42);
  // No memo: every verify recomputes the MAC.
  crypto::KeyRegistry bare(42, /*memoize=*/false);
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
  EXPECT_EQ(registry.sign_memo().size(), 2U);
  EXPECT_EQ(bare.verify_stats().lookups, 9U);
  EXPECT_EQ(bare.verify_stats().hits, 0U);
  EXPECT_EQ(bare.sign_memo().size(), 0U);
}

TEST(SignMemoTest, ResetSimulatorStartsWithAnEmptyMemo) {
  // The memo belongs to the key registry, which reset() replaces: the next
  // run starts with no entries, no verify counts, and the next seed's keys.
  sim::Simulator::Options options;
  options.seed = 42;
  sim::Simulator simulator(options);
  const Bytes payload = to_bytes("vote");
  const crypto::Signature under42 =
      simulator.registry().sign_as(p(1), payload);
  ASSERT_TRUE(simulator.registry().verify(p(1), payload, under42));
  ASSERT_EQ(simulator.registry().verify_stats().hits, 1U);
  ASSERT_EQ(simulator.registry().sign_memo().size(), 1U);
  ASSERT_GT(simulator.registry().sign_memo().capacity_bytes(), 0U);

  options.seed = 43;
  simulator.reset(options);
  crypto::KeyRegistry& registry = simulator.registry();
  EXPECT_EQ(registry.sign_memo().size(), 0U);
  EXPECT_EQ(registry.verify_stats().lookups, 0U);
  EXPECT_EQ(registry.verify_stats().hits, 0U);
  // Not even the old run's buckets are kept.
  EXPECT_EQ(registry.sign_memo().capacity_bytes(),
            crypto::KeyRegistry(43).sign_memo().capacity_bytes());

  EXPECT_FALSE(registry.verify(p(1), payload, under42));
  EXPECT_EQ(registry.verify_stats().lookups, 1U);
  EXPECT_EQ(registry.verify_stats().hits, 0U);
  const crypto::Signature under43 = registry.sign_as(p(1), payload);
  EXPECT_NE(under43, under42);
  EXPECT_EQ(under43, sim::Simulator(options).registry().sign_as(p(1), payload));
  EXPECT_TRUE(registry.verify(p(1), payload, under43));
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
