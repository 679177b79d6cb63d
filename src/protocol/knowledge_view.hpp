// A process's local knowledge state, shared by the sink predicate, the
// search strategies, and the Discovery algorithm.
//
// Mirrors Algorithm 1's three sets:
//   S_PD       -> pds() (one PD per received() owner, same index;
//                 signatures are checked before insertion by the caller, so
//                 the view stores plain sets)
//   S_known    -> known()
//   S_received -> received() (the owners of pds(), ascending)
//
// A PD is held by a shared handle, never copied: Discovery hands in an
// aliasing handle into the owner's one signed PD (msg::SignedPdRef), so
// every node that accepts PD_i shares one set. RRB and tests hand in plain
// sets, which add_pd wraps once, and omniscient() wraps each vertex's
// out-neighbourhood. Owner ids are stored once, in received().
//
// The view holds content only; every derived structure (knowledge graph,
// SCCs, candidates) is computed per evaluation. PDs are immutable once
// received (first version wins, mirroring "PD_i always returns the same
// set") and known()/received() grow monotonically (see README "Membership
// engine caching").
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace bftcup::protocol {

class KnowledgeView {
 public:
  /// Shared, immutable PD contents.
  using PdRef = std::shared_ptr<const IdSet>;

  KnowledgeView() = default;

  /// Initializes the view for process `self` with its own participant
  /// detector output (Alg. 1 line 1).
  KnowledgeView(ProcessId self, const IdSet& own_pd);

  /// Records `owner`'s PD. Returns true if this changed the view (new owner
  /// or — from a Byzantine equivocator — different contents, which the view
  /// rejects by keeping the first version, mirroring "PD_i always returns
  /// the same set"). New ids in `*pd` are added to known(), merged in
  /// place: accepting a PD allocates only when the view's vectors grow.
  bool add_pd(ProcessId owner, PdRef pd);

  /// Same, for a PD held by the caller: wrapped in a handle of its own only
  /// if `owner` is new.
  bool add_pd(ProcessId owner, const IdSet& pd);

  [[nodiscard]] const IdSet& known() const { return known_; }
  [[nodiscard]] const IdSet& received() const { return received_; }
  /// pds()[r] is the PD of received().values()[r]: ascending owners.
  [[nodiscard]] const std::vector<PdRef>& pds() const { return pds_; }
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
  /// Adds `owner` and the ids of `pd` to known(); true if any was new.
  bool learn(ProcessId owner, const IdSet& pd);

  IdSet known_;
  IdSet received_;
  std::vector<PdRef> pds_;  ///< parallel to received_
};

}  // namespace bftcup::protocol
