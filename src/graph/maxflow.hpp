// Dinic max-flow on unit-capacity-style networks.
//
// Used by connectivity.{hpp,cpp} to count internally node-disjoint paths
// (Menger's theorem via vertex splitting). Capacities are small integers, so
// int is ample and overflow-free.
//
// An instance doubles as a reusable arena: reset(n) clears the network but
// keeps every buffer's capacity, and reset_flow() restores the capacities
// of the network it holds, so the κ checks that run one flow per vertex
// pair build one network per graph and pay no allocation per pair.
#pragma once

#include <cstddef>
#include <vector>

namespace bftcup::graph {

class MaxFlow {
 public:
  /// An empty arena; call reset() before adding edges.
  MaxFlow() = default;

  explicit MaxFlow(std::size_t node_count) { reset(node_count); }

  /// Re-initializes the network for `node_count` nodes, keeping allocated
  /// capacity (edge pool, adjacency rows, BFS scratch) for reuse.
  void reset(std::size_t node_count);

  /// Adds a directed edge with the given capacity (and its residual twin).
  void add_edge(std::size_t from, std::size_t to, int capacity);

  /// Restores every edge to its original capacity, keeping the network
  /// topology. Cheaper than rebuilding: the connectivity checks run one
  /// flow per (source, target) pair over one shared network, paying a
  /// linear sweep instead of an adjacency rebuild per pair.
  void reset_flow();

  /// Computes max flow from s to t, stopping early once `limit` units have
  /// been pushed (useful for "are there >= k disjoint paths" checks).
  /// May be called once per reset(); call reset_flow() between runs to
  /// reuse the same network for another (s, t) pair.
  int run(std::size_t s, std::size_t t, int limit = 1 << 30);

 private:
  struct Edge {
    std::size_t to;
    int capacity;
    int original;
  };

  bool bfs(std::size_t s, std::size_t t);
  int dfs(std::size_t u, std::size_t t, int pushed);

  std::size_t node_count_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace bftcup::graph
