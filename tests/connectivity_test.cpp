#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "graph/connectivity.hpp"
#include "graph/maxflow.hpp"

namespace bftcup::graph {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

Digraph complete(std::size_t n) {
  Digraph g;
  for (std::uint64_t a = 1; a <= n; ++a) {
    for (std::uint64_t b = 1; b <= n; ++b) {
      if (a != b) g.add_edge(p(a), p(b));
    }
  }
  return g;
}

Digraph directed_cycle(std::size_t n) {
  Digraph g;
  for (std::uint64_t i = 1; i <= n; ++i) {
    g.add_edge(p(i), p(i % n + 1));
  }
  return g;
}

TEST(MaxFlowTest, ResetReusesTheArenaAcrossNetworks) {
  MaxFlow flow(4);
  flow.add_edge(0, 1, 3);
  flow.add_edge(1, 2, 2);
  flow.add_edge(2, 3, 5);
  EXPECT_EQ(flow.run(0, 3), 2);

  // Smaller network after reset: stale rows must not leak edges.
  flow.reset(2);
  flow.add_edge(0, 1, 7);
  EXPECT_EQ(flow.run(0, 1), 7);

  // Larger network after reset.
  flow.reset(5);
  flow.add_edge(0, 1, 1);
  flow.add_edge(0, 2, 1);
  flow.add_edge(1, 4, 1);
  flow.add_edge(2, 3, 1);
  flow.add_edge(3, 4, 1);
  EXPECT_EQ(flow.run(0, 4), 2);
}

TEST(MaxFlowTest, SimplePath) {
  MaxFlow flow(4);
  flow.add_edge(0, 1, 3);
  flow.add_edge(1, 2, 2);
  flow.add_edge(2, 3, 5);
  EXPECT_EQ(flow.run(0, 3), 2);
}

TEST(MaxFlowTest, ParallelPaths) {
  MaxFlow flow(4);
  flow.add_edge(0, 1, 1);
  flow.add_edge(1, 3, 1);
  flow.add_edge(0, 2, 1);
  flow.add_edge(2, 3, 1);
  EXPECT_EQ(flow.run(0, 3), 2);
}

TEST(MaxFlowTest, LimitStopsEarly) {
  MaxFlow flow(2);
  flow.add_edge(0, 1, 10);
  EXPECT_EQ(flow.run(0, 1, 3), 3);
}

TEST(MaxFlowTest, DisconnectedIsZero) {
  MaxFlow flow(3);
  flow.add_edge(0, 1, 1);
  EXPECT_EQ(flow.run(0, 2), 0);
}

TEST(MaxFlowTest, ClassicNetwork) {
  // CLRS-style example with a known max flow of 23.
  MaxFlow flow(6);
  flow.add_edge(0, 1, 16);
  flow.add_edge(0, 2, 13);
  flow.add_edge(1, 2, 10);
  flow.add_edge(2, 1, 4);
  flow.add_edge(1, 3, 12);
  flow.add_edge(3, 2, 9);
  flow.add_edge(2, 4, 14);
  flow.add_edge(4, 3, 7);
  flow.add_edge(3, 5, 20);
  flow.add_edge(4, 5, 4);
  EXPECT_EQ(flow.run(0, 5), 23);
}

TEST(DisjointPathsTest, DirectEdgeCountsAsOnePath) {
  Digraph g;
  g.add_edge(p(1), p(2));
  EXPECT_EQ(disjoint_path_count(g, p(1), p(2)), 1U);
  EXPECT_EQ(disjoint_path_count(g, p(2), p(1)), 0U);
}

TEST(DisjointPathsTest, CompleteGraphHasNMinusOne) {
  const Digraph g = complete(5);
  EXPECT_EQ(disjoint_path_count(g, p(1), p(2)), 4U);
}

TEST(DisjointPathsTest, InternalBottleneck) {
  // Two paths 1->a->4 and 1->b->4 sharing nothing: 2 disjoint paths; then
  // all traffic through c only: 1.
  Digraph g;
  g.add_edge(p(1), p(2));
  g.add_edge(p(2), p(4));
  g.add_edge(p(1), p(3));
  g.add_edge(p(3), p(4));
  EXPECT_EQ(disjoint_path_count(g, p(1), p(4)), 2U);

  Digraph h;
  h.add_edge(p(1), p(2));
  h.add_edge(p(1), p(3));
  h.add_edge(p(2), p(5));
  h.add_edge(p(3), p(5));
  h.add_edge(p(5), p(4));
  EXPECT_EQ(disjoint_path_count(h, p(1), p(4)), 1U);  // 5 is a cut vertex
}

TEST(DisjointPathsTest, HasKDisjointPaths) {
  const Digraph g = complete(4);
  EXPECT_TRUE(has_k_disjoint_paths(g, p(1), p(2), 3));
  EXPECT_FALSE(has_k_disjoint_paths(g, p(1), p(2), 4));
  EXPECT_TRUE(has_k_disjoint_paths(g, p(1), p(2), 0));  // vacuous
}

TEST(DisjointPathsTest, MissingEndpoints) {
  const Digraph g = complete(3);
  EXPECT_EQ(disjoint_path_count(g, p(1), p(99)), 0U);
  EXPECT_EQ(disjoint_path_count(g, p(1), p(1)), 0U);
}

TEST(StrongConnectivityTest, CompleteGraphs) {
  for (std::size_t n = 2; n <= 6; ++n) {
    EXPECT_EQ(strong_connectivity(complete(n)), n - 1) << "K_" << n;
  }
}

TEST(StrongConnectivityTest, DirectedCycleIsOne) {
  EXPECT_EQ(strong_connectivity(directed_cycle(6)), 1U);
}

TEST(StrongConnectivityTest, NotStronglyConnectedIsZero) {
  Digraph g;
  g.add_edge(p(1), p(2));
  EXPECT_EQ(strong_connectivity(g), 0U);
  EXPECT_EQ(strong_connectivity(Digraph{}), 0U);
  Digraph single;
  single.add_vertex(p(1));
  EXPECT_EQ(strong_connectivity(single), 0U);
}

TEST(StrongConnectivityTest, CompleteMinusOneEdge) {
  Digraph g = complete(4);
  // Remove edge 1->2 by rebuilding.
  Digraph h;
  for (ProcessId v : g.vertices()) {
    for (ProcessId w : g.out_neighbors(v)) {
      if (!(v == p(1) && w == p(2))) h.add_edge(v, w);
    }
  }
  // κ(1,2) drops to 2 (paths through 3 and 4 only).
  EXPECT_EQ(strong_connectivity(h), 2U);
}

TEST(StrongConnectivityTest, IsKStronglyConnectedAgreesWithKappa) {
  const Digraph g = complete(5);
  for (std::size_t k = 1; k <= 4; ++k) {
    EXPECT_TRUE(is_k_strongly_connected(g, k));
  }
  EXPECT_FALSE(is_k_strongly_connected(g, 5));
}

TEST(StrongConnectivityTest, TwoTrianglesBridged) {
  // Triangles {1,2,3} and {4,5,6} joined by 3<->4: κ = 1.
  Digraph g;
  auto tri = [&](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    g.add_edge(p(a), p(b));
    g.add_edge(p(b), p(a));
    g.add_edge(p(b), p(c));
    g.add_edge(p(c), p(b));
    g.add_edge(p(a), p(c));
    g.add_edge(p(c), p(a));
  };
  tri(1, 2, 3);
  tri(4, 5, 6);
  g.add_edge(p(3), p(4));
  g.add_edge(p(4), p(3));
  EXPECT_EQ(strong_connectivity(g), 1U);
}

TEST(AllPairsTest, NonSinkToSinkPaths) {
  // 5 -> {1,2} where {1,2,3} is a complete triangle: 5 has 2 disjoint paths
  // to each of 1, 2, 3.
  Digraph g = complete(3);
  g.add_edge(p(5), p(1));
  g.add_edge(p(5), p(2));
  EXPECT_TRUE(all_pairs_k_connected(g, {p(5)}, {p(1), p(2), p(3)}, 2));
  EXPECT_FALSE(all_pairs_k_connected(g, {p(5)}, {p(1), p(2), p(3)}, 3));
}

TEST(AllPairsTest, SkipsSelfPairs) {
  const Digraph g = complete(3);
  EXPECT_TRUE(all_pairs_k_connected(g, {p(1), p(2)}, {p(1), p(2)}, 2));
}

/// True iff b is reachable from a without entering `removed` and without
/// the direct a -> b edge.
bool reaches_around(const Digraph& g, ProcessId a, ProcessId b,
                    const IdSet& removed) {
  std::vector<ProcessId> stack = {a};
  IdSet seen = {a};
  while (!stack.empty()) {
    const ProcessId u = stack.back();
    stack.pop_back();
    for (ProcessId w : g.out_neighbors(u)) {
      if (u == a && w == b) continue;
      if (w == b) return true;
      if (removed.contains(w) || !seen.insert(w)) continue;
      stack.push_back(w);
    }
  }
  return false;
}

/// Menger by brute force, independent of the flow code: [a -> b edge] plus
/// the smallest |C|, C ⊆ V \ {a, b}, that cuts every other a -> b path.
std::size_t menger_count(const Digraph& g, ProcessId a, ProcessId b) {
  std::vector<ProcessId> others;
  for (ProcessId v : g.vertices()) {
    if (v != a && v != b) others.push_back(v);
  }
  std::size_t cut = others.size();  // removing every other vertex cuts
  for (std::uint32_t mask = 0; mask < (1U << others.size()); ++mask) {
    const auto size = static_cast<std::size_t>(std::popcount(mask));
    if (size >= cut) continue;
    IdSet removed;
    for (std::size_t i = 0; i < others.size(); ++i) {
      if (mask & (1U << i)) removed.insert(others[i]);
    }
    if (!reaches_around(g, a, b, removed)) cut = size;
  }
  return (g.has_edge(a, b) ? 1 : 0) + cut;
}

class MengerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MengerSweep, SplitNetworkMatchesBruteForceCuts) {
  // A ring (so the graph is strongly connected) plus 12 random chords.
  Rng rng(GetParam());
  Digraph g;
  const std::size_t n = 8;
  for (std::uint64_t i = 0; i < n; ++i) {
    g.add_edge(p(i + 1), p((i + 1) % n + 1));
  }
  for (int e = 0; e < 12; ++e) {
    g.add_edge(p(rng.next_below(n) + 1), p(rng.next_below(n) + 1));
  }
  const IdSet all = g.vertices();
  std::size_t kappa = n;
  for (ProcessId a : all) {
    std::size_t from_a = n;
    for (ProcessId b : all) {
      if (a == b) continue;
      const std::size_t expected = menger_count(g, a, b);
      const std::string pair = to_string(a) + "->" + to_string(b);
      EXPECT_EQ(disjoint_path_count(g, a, b), expected) << pair;
      EXPECT_TRUE(has_k_disjoint_paths(g, a, b, expected)) << pair;
      EXPECT_FALSE(has_k_disjoint_paths(g, a, b, expected + 1)) << pair;
      from_a = std::min(from_a, expected);
    }
    EXPECT_TRUE(all_pairs_k_connected(g, {a}, all, from_a)) << to_string(a);
    EXPECT_FALSE(all_pairs_k_connected(g, {a}, all, from_a + 1))
        << to_string(a);
    kappa = std::min(kappa, from_a);
  }
  EXPECT_TRUE(all_pairs_k_connected(g, all, all, kappa));
  EXPECT_FALSE(all_pairs_k_connected(g, all, all, kappa + 1));
  EXPECT_EQ(strong_connectivity(g), kappa);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MengerSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace bftcup::graph
