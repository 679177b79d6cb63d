#include "graph/connectivity.hpp"

#include <algorithm>
#include <limits>

#include "graph/maxflow.hpp"
#include "graph/scc.hpp"

namespace bftcup::graph {
namespace {

constexpr int kInf = 1 << 29;

/// A path-count request as a flow limit (saturating at kInf).
int flow_limit(std::size_t k) {
  return static_cast<int>(std::min<std::size_t>(k, kInf));
}

/// The vertex-split flow network of one graph, built once and reused (via
/// MaxFlow::reset_flow) for every (source, target) pair counted on it.
/// Node 2v = v_in, 2v+1 = v_out; every vertex has a unit edge v_in -> v_out
/// and every graph edge u -> v a unit edge u_out -> v_in. A from -> to flow
/// leaves from_out and ends at to_in, so the endpoints' own splits never
/// carry it, and unit capacities count internally node-disjoint paths
/// exactly: every other edge either leaves from_out (one path per first
/// hop) or crosses the unit split of an internal vertex, and a direct
/// from -> to edge is one whole path by itself.
///
/// The network lives in one flow arena per thread (a run executes on one
/// thread), so the κ checks reuse buffers instead of reallocating them; at
/// most one SplitNetwork is alive per thread at a time.
class SplitNetwork {
 public:
  explicit SplitNetwork(const Digraph& g) : flow_(arena()) {
    const std::size_t n = g.vertex_count();
    flow_.reset(2 * n);
    for (std::size_t v = 0; v < n; ++v) flow_.add_edge(2 * v, 2 * v + 1, 1);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v : g.out(u)) flow_.add_edge(2 * u + 1, 2 * v, 1);
    }
  }

  /// Internally node-disjoint from -> to path count, capped at `limit`.
  int count(std::size_t from, std::size_t to, int limit) {
    if (limit <= 0) return 0;
    flow_.reset_flow();
    return flow_.run(2 * from + 1, 2 * to, limit);
  }

 private:
  static MaxFlow& arena() {
    thread_local MaxFlow flow;
    return flow;
  }

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

/// Graphs at or above this size probe a pivot set; below it every ordered
/// pair is probed, and that all-pairs loop stays the reference
/// implementation (the randomized property test cross-validates the two on
/// graphs straddling the threshold).
constexpr std::size_t kPivotThreshold = 64;

/// min(κ(g), cap), exact at every size. Early exits, cheapest first: a
/// complete graph has κ = n-1 by the path definition (no flow needed); κ
/// is at most the degree bound; and a strongly connected graph has κ >= 1,
/// so once the running minimum reaches 1 no further pair can lower it.
///
/// At >= 64 vertices only the pairs (p, v) and (v, p) with p among the
/// first `bound + 3` vertices (the pivots) are probed. Correctness: let
/// (a, b) attain κ and C be a minimum vertex cut for it (|C| = κ, or κ-1
/// plus the direct a->b edge), so |C ∪ {a, b}| <= bound + 2 and some pivot
/// p avoids C ∪ {a, b}. If p cannot reach b without C, then C (plus a, if
/// the direct edge exists) cuts p from b, and the probed flow(p, b) <= κ;
/// otherwise every a->p path hits C (else a would reach b through p,
/// contradicting the cut), and the probed flow(a, p) <= κ. Every probed
/// flow is also >= κ by minimality, so the probed minimum equals κ —
/// (bound + 3) · 2n flows instead of n · (n-1).
std::size_t connectivity_up_to(const Digraph& g, std::size_t cap) {
  const std::size_t n = g.vertex_count();
  if (n < 2 || !is_strongly_connected(g)) return 0;
  if (g.edge_count() == n * (n - 1)) return std::min(n - 1, cap);
  const std::size_t bound = degree_bound(g);
  std::size_t best = std::min(bound, cap);
  if (best <= 1) return best;

  SplitNetwork network(g);
  // Lowers best to the pair's count; true once best can drop no further.
  const auto probe = [&](std::size_t from, std::size_t to) {
    const int paths = network.count(from, to, flow_limit(best));
    best = std::min(best, static_cast<std::size_t>(paths));
    return best <= 1;
  };
  if (n < kPivotThreshold) {
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (u != v && probe(u, v)) return best;
      }
    }
    return best;
  }
  const std::size_t pivots = std::min(n, bound + 3);
  for (std::size_t p = 0; p < pivots; ++p) {
    for (std::size_t v = 0; v < n; ++v) {
      if (v != p && (probe(p, v) || probe(v, p))) return best;
    }
  }
  return best;
}

}  // namespace

std::size_t disjoint_path_count(const Digraph& g, ProcessId from,
                                ProcessId to) {
  const auto u = g.index_of(from);
  const auto v = g.index_of(to);
  if (!u || !v || *u == *v) return 0;
  return static_cast<std::size_t>(SplitNetwork(g).count(*u, *v, kInf));
}

bool has_k_disjoint_paths(const Digraph& g, ProcessId from, ProcessId to,
                          std::size_t k) {
  if (k == 0) return true;
  const auto u = g.index_of(from);
  const auto v = g.index_of(to);
  if (!u || !v || *u == *v) return false;
  const int limit = flow_limit(k);
  return SplitNetwork(g).count(*u, *v, limit) >= limit;
}

std::size_t strong_connectivity(const Digraph& g) {
  return connectivity_up_to(g, std::numeric_limits<std::size_t>::max());
}

bool is_k_strongly_connected(const Digraph& g, std::size_t k) {
  if (k == 0) return g.vertex_count() >= 2 && is_strongly_connected(g);
  // κ <= the degree bound, so a k above it fails without a single flow.
  if (k > degree_bound(g)) return false;
  return connectivity_up_to(g, k) >= k;
}

bool all_pairs_k_connected(const Digraph& g, const IdSet& sources,
                           const IdSet& targets, std::size_t k) {
  if (k == 0) return true;
  const int limit = flow_limit(k);
  SplitNetwork network(g);
  for (ProcessId i : sources) {
    for (ProcessId j : targets) {
      if (i == j) continue;
      const auto u = g.index_of(i);
      const auto v = g.index_of(j);
      if (!u || !v || network.count(*u, *v, limit) < limit) return false;
    }
  }
  return true;
}

}  // namespace bftcup::graph
