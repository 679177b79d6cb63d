// A process's local knowledge state, shared by the sink predicate, the
// search strategies, and the Discovery algorithm.
//
// Mirrors Algorithm 1's three sets:
//   S_PD       -> pds() (owner -> PD contents; signatures are checked before
//                 insertion by the caller, so the view stores plain sets)
//   S_known    -> known()
//   S_received -> received() (the keys of pds())
//
// The view holds content only; every derived structure (knowledge graph,
// SCCs, candidates) is computed per evaluation. PDs are immutable once
// received (first version wins, mirroring "PD_i always returns the same
// set") and known()/received() grow monotonically (see README "Membership
// engine caching").
#pragma once

#include <map>

#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace bftcup::protocol {

class KnowledgeView {
 public:
  KnowledgeView() = default;

  /// Initializes the view for process `self` with its own participant
  /// detector output (Alg. 1 line 1).
  KnowledgeView(ProcessId self, const IdSet& own_pd);

  /// Records `owner`'s PD. Returns true if this changed the view (new owner
  /// or — from a Byzantine equivocator — different contents, which the view
  /// rejects by keeping the first version, mirroring "PD_i always returns
  /// the same set"). New ids in `pd` are added to known().
  bool add_pd(ProcessId owner, const IdSet& pd);

  [[nodiscard]] const IdSet& known() const { return known_; }
  [[nodiscard]] const IdSet& received() const { return received_; }
  [[nodiscard]] const std::map<ProcessId, IdSet>& pds() const { return pds_; }
  [[nodiscard]] const IdSet* pd_of(ProcessId owner) const;

  /// The knowledge graph K restricted to `keep` (K[keep]): the vertices
  /// are `keep`, with an edge j -> k for every j in `keep` whose received
  /// PD contains k in `keep`. Only received PDs contribute edges — a
  /// process cannot use out-edges it has not seen evidence for. The one
  /// place a view becomes a Digraph: the predicate takes K[S1] for κ, in
  /// the mask kernel's flow fallback and in the reference
  /// admissible_thresholds. The search finds the SCCs of K[S_received]
  /// without it, on a flat adjacency with the same vertex and edge order
  /// (protocol/sink_search.cpp). Vertices are indexed in ascending id
  /// order and every out-list ascends, so any traversal of the result is
  /// a function of the view alone.
  [[nodiscard]] graph::Digraph knowledge_graph(const IdSet& keep) const;

  /// Omniscient view of a full knowledge connectivity graph: every vertex's
  /// out-neighborhood is its PD. Used by graph-level checkers and tests.
  [[nodiscard]] static KnowledgeView omniscient(const graph::Digraph& g);

 private:
  IdSet known_;
  IdSet received_;
  std::map<ProcessId, IdSet> pds_;
};

}  // namespace bftcup::protocol
