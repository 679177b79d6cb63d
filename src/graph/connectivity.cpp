#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>

#include "graph/maxflow.hpp"
#include "graph/scc.hpp"

namespace bftcup::graph {
namespace {

constexpr int kInf = 1 << 29;

/// One flow arena per thread (sweeps run one simulator per thread), shared
/// by the pair-at-a-time and batched paths so the κ checks reuse buffers
/// instead of reallocating them per flow.
MaxFlow& flow_arena() {
  thread_local MaxFlow arena;
  return arena;
}

/// Builds the vertex-split flow network and returns the flow value from
/// `from` to `to`, capped at `limit`.
int split_graph_flow(const Digraph& g, std::size_t from, std::size_t to,
                     int limit) {
  if (limit <= 0) return 0;
  const std::size_t n = g.vertex_count();
  // Node 2v = v_in, 2v+1 = v_out.
  MaxFlow& flow = flow_arena();
  flow.reset(2 * n);
  for (std::size_t v = 0; v < n; ++v) {
    const int cap = (v == from || v == to) ? kInf : 1;
    flow.add_edge(2 * v, 2 * v + 1, cap);
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : g.out(u)) {
      // A direct from->to edge is one whole path by itself; without the unit
      // cap the uncapacitated endpoint splits would let it carry any flow.
      const int cap = (u == from && v == to) ? 1 : kInf;
      flow.add_edge(2 * u + 1, 2 * v, cap);
    }
  }
  return flow.run(2 * from + 1, 2 * to, limit);
}

/// All-unit-capacity split network built once and reused (via reset_flow)
/// for every (source, target) pair of one graph — the batched form of
/// split_graph_flow. Capping *every* edge at 1 yields the same flow values:
/// any adjacency edge u->v either leaves the source's _out or crosses a
/// unit vertex split at u or v, except the direct source->target edge,
/// which split_graph_flow caps at 1 deliberately.
class BatchedSplitFlow {
 public:
  explicit BatchedSplitFlow(const Digraph& g) : flow_(flow_arena()) {
    const std::size_t n = g.vertex_count();
    flow_.reset(2 * n);
    for (std::size_t v = 0; v < n; ++v) flow_.add_edge(2 * v, 2 * v + 1, 1);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v : g.out(u)) flow_.add_edge(2 * u + 1, 2 * v, 1);
    }
  }

  /// Internally node-disjoint from->to path count, capped at `limit`.
  int count(std::size_t from, std::size_t to, int limit) {
    if (limit <= 0) return 0;
    flow_.reset_flow();
    return flow_.run(2 * from + 1, 2 * to, limit);
  }

 private:
  MaxFlow& flow_;
};

/// κ is bounded by the minimum in/out degree: κ(u,v) <= outdeg(u) and
/// <= indeg(v) by the path definition.
std::size_t degree_bound(const Digraph& g) {
  std::size_t bound = std::numeric_limits<std::size_t>::max();
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    bound = std::min({bound, g.out(v).size(), g.in(v).size()});
  }
  return bound;
}

/// The pivot vertices of the sub-quadratic κ path: any `bound + 3` distinct
/// vertices (all of them when the graph is smaller). Correctness argument
/// (probed pairs = every (p, v) and (v, p) with p a pivot): let (a, b)
/// attain κ and C be a minimum vertex cut for it (|C| = κ, or κ-1 plus the
/// direct a->b edge), so |C ∪ {a, b}| <= bound + 2 and some pivot p avoids
/// C ∪ {a, b}. If p cannot reach b without C, then C (plus a, if the
/// direct edge exists) cuts p from b, and the probed flow(p, b) <= κ;
/// otherwise every a->p path hits C (else a would reach b through p,
/// contradicting the cut), and the probed flow(a, p) <= κ. Every probed
/// flow is also >= κ by minimality, so the probed minimum equals κ —
/// (bound + 3) · 2n flows instead of n · (n-1).
std::size_t pivot_count(std::size_t n, std::size_t bound) {
  return std::min(n, bound + 3);
}

/// Graphs at or above this size take the pivot path; below it the all-pairs
/// loop is cheap and stays the reference implementation (the randomized
/// property test cross-validates the two on graphs straddling the
/// threshold).
constexpr std::size_t kPivotThreshold = 64;

/// Exact κ of a strongly connected, non-complete g via the pivot set.
std::size_t pivot_connectivity(const Digraph& g, std::size_t bound) {
  const std::size_t n = g.vertex_count();
  const std::size_t pivots = pivot_count(n, bound);
  BatchedSplitFlow batched(g);
  std::size_t best = bound;
  for (std::size_t p = 0; p < pivots; ++p) {
    for (std::size_t v = 0; v < n; ++v) {
      if (v == p) continue;
      best = std::min(best, static_cast<std::size_t>(batched.count(
                                p, v, static_cast<int>(best))));
      best = std::min(best, static_cast<std::size_t>(batched.count(
                                v, p, static_cast<int>(best))));
      // Strongly connected means κ >= 1; once best hits the floor no
      // further pair can lower it.
      if (best <= 1) return 1;
    }
  }
  return best;
}

/// Pivot-path form of the k-connectivity predicate: κ >= k iff every probed
/// pair carries k units (the probed minimum equals κ, see pivot_count).
bool pivot_k_connected(const Digraph& g, std::size_t bound, std::size_t k) {
  const std::size_t n = g.vertex_count();
  const std::size_t pivots = pivot_count(n, bound);
  const int limit = static_cast<int>(std::min<std::size_t>(k, kInf));
  BatchedSplitFlow batched(g);
  for (std::size_t p = 0; p < pivots; ++p) {
    for (std::size_t v = 0; v < n; ++v) {
      if (v == p) continue;
      if (batched.count(p, v, limit) < limit) return false;
      if (batched.count(v, p, limit) < limit) return false;
    }
  }
  return true;
}

}  // namespace

std::size_t disjoint_path_count(const Digraph& g, ProcessId from,
                                ProcessId to) {
  const auto u = g.index_of(from);
  const auto v = g.index_of(to);
  if (!u || !v || *u == *v) return 0;
  return static_cast<std::size_t>(split_graph_flow(g, *u, *v, kInf));
}

bool has_k_disjoint_paths(const Digraph& g, ProcessId from, ProcessId to,
                          std::size_t k) {
  if (k == 0) return true;
  const auto u = g.index_of(from);
  const auto v = g.index_of(to);
  if (!u || !v || *u == *v) return false;
  const int limit = static_cast<int>(std::min<std::size_t>(k, kInf));
  return split_graph_flow(g, *u, *v, limit) >= limit;
}

std::size_t strong_connectivity(const Digraph& g) {
  const std::size_t n = g.vertex_count();
  if (n < 2) return 0;
  if (!is_strongly_connected(g)) return 0;

  // Early-exit certificates, cheapest first: a complete graph has κ = n-1
  // by the path definition (no flow needed), and a degree bound of 1 pins
  // κ of any strongly connected graph to exactly 1.
  if (g.edge_count() == n * (n - 1)) return n - 1;
  const std::size_t bound = degree_bound(g);
  if (bound <= 1) return 1;

  if (n >= kPivotThreshold) return pivot_connectivity(g, bound);

  std::size_t best = bound;
  for (std::size_t u = 0; u < n && best > 0; ++u) {
    for (std::size_t v = 0; v < n && best > 0; ++v) {
      if (u == v) continue;
      const int f =
          split_graph_flow(g, u, v, static_cast<int>(best));
      best = std::min(best, static_cast<std::size_t>(f));
    }
  }
  return best;
}

bool is_k_strongly_connected(const Digraph& g, std::size_t k) {
  if (g.vertex_count() < 2) return false;
  if (k == 0) return is_strongly_connected(g);
  if (!is_strongly_connected(g)) return false;
  const std::size_t n = g.vertex_count();

  // Same certificates as strong_connectivity: κ <= min degree, and a
  // complete graph has κ = n-1 exactly.
  const std::size_t bound = degree_bound(g);
  if (k > bound) return false;
  if (g.edge_count() == n * (n - 1)) return n - 1 >= k;

  if (n >= kPivotThreshold) return pivot_k_connected(g, bound, k);

  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      if (split_graph_flow(g, u, v, static_cast<int>(k)) <
          static_cast<int>(k)) {
        return false;
      }
    }
  }
  return true;
}

bool all_pairs_k_connected(const Digraph& g, const IdSet& sources,
                           const IdSet& targets, std::size_t k) {
  for (ProcessId i : sources) {
    for (ProcessId j : targets) {
      if (i == j) continue;
      if (!has_k_disjoint_paths(g, i, j, k)) return false;
    }
  }
  return true;
}

}  // namespace bftcup::graph
