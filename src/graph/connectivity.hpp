// Vertex connectivity and node-disjoint paths (Menger / max-flow).
//
// Paper notation (§II-C):
//  * a digraph H is k-strongly connected iff every ordered pair (i, j) has
//    >= k internally node-disjoint i->j paths;
//  * κ(H) is the largest such k;
//  * Definition 1 further requires >= k node-disjoint paths from every
//    non-sink process to every sink process.
//
// Counting runs max flow on the standard split network, built once per
// graph: every vertex x becomes x_in -> x_out, every edge u -> v becomes
// u_out -> v_in, all with unit capacity. Max flow from u_out to v_in = max
// internally node-disjoint u -> v path count, including a direct u -> v
// edge as one path.
#pragma once

#include <cstddef>

#include "graph/digraph.hpp"

namespace bftcup::graph {

/// Max number of internally node-disjoint paths from `from` to `to`.
/// Returns 0 if either endpoint is missing or from == to.
[[nodiscard]] std::size_t disjoint_path_count(const Digraph& g, ProcessId from,
                                              ProcessId to);

/// True iff there are >= k internally node-disjoint paths from `from` to
/// `to`. Early-exits the flow at k units.
[[nodiscard]] bool has_k_disjoint_paths(const Digraph& g, ProcessId from,
                                        ProcessId to, std::size_t k);

/// κ(g): the maximum k for which g is k-strongly connected; 0 if g is not
/// strongly connected or has < 2 vertices. (By the path definition a
/// complete graph on n vertices has κ = n-1.) Exact at every size: small
/// graphs probe every ordered pair, graphs of >= 64 vertices take the
/// sub-quadratic certified path — complete-graph and degree-bound early
/// exits, then (min-degree + 3) pivot vertices probed against every other
/// vertex (a pivot-free minimum cut would contradict the probed flows; the
/// argument is in the .cpp).
[[nodiscard]] std::size_t strong_connectivity(const Digraph& g);

/// True iff g is k-strongly connected. Cheaper than computing κ exactly:
/// every flow stops at k units. Takes the same certified pivot path as
/// strong_connectivity at >= 64 vertices.
[[nodiscard]] bool is_k_strongly_connected(const Digraph& g, std::size_t k);

/// True iff every i in `sources` has >= k node-disjoint paths to every j in
/// `targets` within g (pairs with i == j are skipped). One split network
/// serves every pair.
[[nodiscard]] bool all_pairs_k_connected(const Digraph& g,
                                         const IdSet& sources,
                                         const IdSet& targets, std::size_t k);

}  // namespace bftcup::graph
