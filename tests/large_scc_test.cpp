// The large-n frontier pieces: certified pivot connectivity on graphs
// straddling the n = 64 switch point, and the big-SCC certification path
// of the sink search (components beyond the enumeration caps are certified
// or refuted, never silently skipped).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/random.hpp"
#include "cup/scenario_builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "protocol/sink_search.hpp"

namespace bftcup {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

graph::Digraph complete_graph(std::uint64_t n) {
  graph::Digraph g;
  for (std::uint64_t a = 1; a <= n; ++a) {
    for (std::uint64_t b = 1; b <= n; ++b) {
      if (a != b) g.add_edge(p(a), p(b));
    }
  }
  return g;
}

graph::Digraph ring_graph(std::uint64_t n) {
  graph::Digraph g;
  for (std::uint64_t i = 1; i <= n; ++i) {
    g.add_edge(p(i), p(i % n + 1));
  }
  return g;
}

/// κ by the definition: min over ordered pairs of the disjoint-path count.
/// Independent of the pivot machinery under test (disjoint_path_count runs
/// one plain max-flow per pair).
std::size_t reference_kappa(const graph::Digraph& g) {
  const IdSet vertices = g.vertices();
  if (vertices.size() < 2) return 0;
  std::size_t best = vertices.size();
  for (ProcessId a : vertices) {
    for (ProcessId b : vertices) {
      if (a == b) continue;
      best = std::min(best, graph::disjoint_path_count(g, a, b));
    }
  }
  return best;
}

/// Random strongly-connected-ish graph: a ring backbone (guarantees κ >= 1)
/// plus `extra` random chords.
graph::Digraph random_backbone_graph(std::uint64_t n, std::size_t extra,
                                     Rng& rng) {
  graph::Digraph g = ring_graph(n);
  for (std::size_t e = 0; e < extra; ++e) {
    const std::uint64_t a = 1 + rng.next_below(n);
    const std::uint64_t b = 1 + rng.next_below(n);
    if (a != b) g.add_edge(p(a), p(b));
  }
  return g;
}

TEST(PivotConnectivityTest, MatchesAllPairsReferenceAcrossSwitchPoint) {
  Rng rng(4242);
  // Sizes straddle the n = 64 pivot threshold; chord counts sweep sparse
  // (κ = 1) through dense (κ >= 3) regimes.
  for (const std::uint64_t n : {60, 63, 64, 65, 70}) {
    for (const std::size_t extra : {0UL, n / 2UL, 2UL * n, 6UL * n}) {
      const graph::Digraph g = random_backbone_graph(n, extra, rng);
      const std::size_t want = reference_kappa(g);
      EXPECT_EQ(graph::strong_connectivity(g), want)
          << "n=" << n << " extra=" << extra;
      EXPECT_TRUE(graph::is_k_strongly_connected(g, want));
      if (want > 0) {
        EXPECT_FALSE(graph::is_k_strongly_connected(g, want + 1));
      }
    }
  }
}

TEST(PivotConnectivityTest, ClosedFormsAtLargeSizes) {
  // Complete graph: κ = n-1 (certificate, no flow probes). Ring: κ = 1
  // (degree bound). Both above the pivot threshold.
  EXPECT_EQ(graph::strong_connectivity(complete_graph(96)), 95U);
  EXPECT_EQ(graph::strong_connectivity(ring_graph(96)), 1U);
  EXPECT_TRUE(graph::is_k_strongly_connected(complete_graph(96), 95));
  EXPECT_FALSE(graph::is_k_strongly_connected(complete_graph(96), 96));
  EXPECT_TRUE(graph::is_k_strongly_connected(ring_graph(96), 1));
  EXPECT_FALSE(graph::is_k_strongly_connected(ring_graph(96), 2));
  // Not strongly connected at all: κ = 0 regardless of size.
  graph::Digraph chain;
  for (std::uint64_t i = 1; i < 80; ++i) chain.add_edge(p(i), p(i + 1));
  EXPECT_EQ(graph::strong_connectivity(chain), 0U);
}

TEST(BigSccSearchTest, CertifiesCompleteComponentBeyondEveryCap) {
  // K70 cannot be bitmask-enumerated by either strategy; the certification
  // path must still surface the component itself as a candidate with the
  // full threshold range.
  const auto view = protocol::KnowledgeView::omniscient(complete_graph(70));
  for (const bool structured : {false, true}) {
    std::vector<protocol::SinkCandidate> candidates =
        structured ? protocol::StructuredSinkSearch().candidates(view)
                   : protocol::ExhaustiveSinkSearch().candidates(view);
    IdSet all;
    for (std::uint64_t i = 1; i <= 70; ++i) all.insert(p(i));
    // g up to (|S1|-1)/2 = 34 for the whole component (κ-1 = 68 is larger).
    bool found_max_g = false;
    for (const protocol::SinkCandidate& c : candidates) {
      if (c.s1 == all && c.g == 34 && c.s2.empty()) found_max_g = true;
    }
    EXPECT_TRUE(found_max_g) << (structured ? "structured" : "exhaustive");
  }
}

TEST(BigSccSearchTest, RefutesRingComponentBeyondEveryCap) {
  // A 70-ring: κ = 1, so the component certifies only at g = 0, and every
  // sampled C \ D breaks the ring (κ = 0) and yields nothing.
  const auto view = protocol::KnowledgeView::omniscient(ring_graph(70));
  const auto candidates = protocol::StructuredSinkSearch().candidates(view);
  ASSERT_EQ(candidates.size(), 1U);
  EXPECT_EQ(candidates[0].g, 0U);
  EXPECT_EQ(candidates[0].s1.size(), 70U);
}

TEST(BigSccSearchTest, SampledPathIsDeterministic) {
  // The sampling RNG is seeded from the component's member ids, so two
  // independent searches agree exactly.
  Rng rng(99);
  graph::Digraph g = random_backbone_graph(80, 240, rng);
  const auto view = protocol::KnowledgeView::omniscient(g);
  const auto first = protocol::StructuredSinkSearch().candidates(view);
  const auto second = protocol::StructuredSinkSearch().candidates(view);
  EXPECT_EQ(first, second);
}

TEST(BigSccSearchTest, FallbackCounterCountsAndResets) {
  protocol::reset_big_scc_fallbacks();
  EXPECT_EQ(protocol::big_scc_fallbacks(), 0U);
  const auto view = protocol::KnowledgeView::omniscient(ring_graph(70));
  const protocol::StructuredSinkSearch search;
  (void)search.candidates(view);
  EXPECT_EQ(protocol::big_scc_fallbacks(), 1U);
  (void)search.candidates(view);
  EXPECT_EQ(protocol::big_scc_fallbacks(), 2U);
  protocol::reset_big_scc_fallbacks();
  EXPECT_EQ(protocol::big_scc_fallbacks(), 0U);
}

TEST(BigSccSearchTest, SamplesRecoverPlantedSubcomponent) {
  // K69 plus one weakly attached extra member that joins the SCC but ruins
  // its connectivity: the planted satisfying S1 is C minus that member,
  // which only the sampled C \ D family can reach (|C| = 70 > every cap).
  graph::Digraph g = complete_graph(69);
  // 70 points at one clique member and is pointed back at, so the SCC is
  // all 70 vertices but κ(C) = 1 through the weak member.
  g.add_edge(p(70), p(1));
  g.add_edge(p(1), p(70));
  const auto view = protocol::KnowledgeView::omniscient(g);
  protocol::SearchOptions options;
  options.removal_cap = 1;
  // There are only 70 single removals; a budget of 300 (4x attempts, seeded
  // deterministically from the member ids) collects essentially all of
  // them, the planted one included.
  options.big_scc_samples = 300;
  const auto candidates =
      protocol::StructuredSinkSearch(options).candidates(view);
  IdSet clique;
  for (std::uint64_t i = 1; i <= 69; ++i) clique.insert(p(i));
  bool found = false;
  for (const protocol::SinkCandidate& c : candidates) {
    if (c.s1 == clique && c.g >= 30) found = true;
  }
  EXPECT_TRUE(found);
}

// End-to-end: the fallback counter must survive the whole run pipeline
// (execute_scenario resets it, the search increments it, RunReport carries
// it out). A ring is the topology where the path genuinely fires during
// discovery: received knowledge stays path fragments until the last PD
// closes the cycle, so the SCC jumps from < 64 straight to n.
TEST(BigSccSearchTest, RunReportCountsFallbackWhenSccJumpsPastCap) {
  graph::generators::GeneratedSystem ring;
  for (std::uint64_t i = 0; i < 70; ++i) ring.graph.add_vertex(p(i + 1));
  for (std::uint64_t i = 0; i < 70; ++i) {
    ring.graph.add_edge_unchecked(p(i + 1), p((i + 1) % 70 + 1));
  }
  ring.f = 0;
  for (std::uint64_t i = 0; i < 70; ++i) ring.sink.insert(p(i + 1));
  const auto report =
      cup::ScenarioBuilder(ring)
          .mode(cup::Mode::kAuth)
          .seed(17)
          .search(std::make_shared<protocol::StructuredSinkSearch>())
          .run();
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_TRUE(report.agreement);
  EXPECT_GT(report.big_scc_fallbacks, 0U);
}

// Counter-case: a complete K70 run decides WITHOUT the fallback path. A
// node's received SCC grows one PD at a time, so at exactly 63 received it
// already certifies the sink with S2 = the 7 known-but-unreceived members —
// the enumeration cap is never crossed. Documents that the counter is a
// "view jumped past the cap" diagnostic, not a "the system is big" one.
TEST(BigSccSearchTest, CompleteGraphRunCertifiesBelowCapViaEscapeSet) {
  graph::generators::GeneratedSystem big;
  for (std::uint64_t i = 1; i <= 70; ++i) big.graph.add_vertex(p(i));
  for (std::uint64_t a = 1; a <= 70; ++a) {
    for (std::uint64_t b = 1; b <= 70; ++b) {
      if (a != b) big.graph.add_edge_unchecked(p(a), p(b));
    }
  }
  big.faulty.insert(p(1));
  big.f = 1;
  for (std::uint64_t i = 1; i <= 70; ++i) big.sink.insert(p(i));
  const auto report =
      cup::ScenarioBuilder(big)
          .mode(cup::Mode::kAuth)
          .seed(17)
          .search(std::make_shared<protocol::StructuredSinkSearch>())
          .run();
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_TRUE(report.agreement);
  EXPECT_EQ(report.big_scc_fallbacks, 0U);
}

}  // namespace
}  // namespace bftcup
