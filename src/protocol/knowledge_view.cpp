#include "protocol/knowledge_view.hpp"

#include "common/bitset64.hpp"

namespace bftcup::protocol {

KnowledgeView::KnowledgeView(ProcessId self, const IdSet& own_pd) {
  known_.insert(self);
  known_.insert_all(own_pd);
  add_pd(self, own_pd);
}

bool KnowledgeView::add_pd(ProcessId owner, const IdSet& pd) {
  bool changed = known_.insert(owner);
  changed |= known_.insert_all(pd) > 0;
  if (!pds_.contains(owner)) {
    pds_.emplace(owner, pd);
    received_.insert(owner);
    changed = true;
  }
  return changed;
}

const IdSet* KnowledgeView::pd_of(ProcessId owner) const {
  auto it = pds_.find(owner);
  return it == pds_.end() ? nullptr : &it->second;
}

graph::Digraph KnowledgeView::knowledge_graph(const IdSet& keep) const {
  const AdaptiveIdProbe probe(keep);
  graph::Digraph g(keep);
  for (ProcessId id : keep) {
    const IdSet* pd = pd_of(id);
    if (pd == nullptr) continue;
    // A PD is a set, so each (id, t) pair occurs once — the unchecked
    // insert keeps a dense `keep` (the big-SCC certification path evaluates
    // near-complete components) quadratic instead of cubic.
    for (ProcessId t : *pd) {
      if (probe.contains(t)) g.add_edge_unchecked(id, t);
    }
  }
  return g;
}

KnowledgeView KnowledgeView::omniscient(const graph::Digraph& g) {
  KnowledgeView view;
  const IdSet vertices = g.vertices();
  view.known_ = vertices;
  for (ProcessId id : vertices) {
    view.received_.insert(id);
    view.pds_.emplace(id, g.out_neighbors(id));
  }
  return view;
}

}  // namespace bftcup::protocol
