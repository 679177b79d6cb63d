#include "protocol/knowledge_view.hpp"

#include <algorithm>

#include "common/bitset64.hpp"

namespace bftcup::protocol {

KnowledgeView::KnowledgeView(ProcessId self, const IdSet& own_pd) {
  add_pd(self, own_pd);
}

bool KnowledgeView::add_pd(ProcessId owner, PdRef pd) {
  bool changed = learn(owner, *pd);
  const auto& owners = received_.values();
  const auto at = std::lower_bound(owners.begin(), owners.end(), owner);
  if (at == owners.end() || *at != owner) {
    pds_.insert(pds_.begin() + (at - owners.begin()), std::move(pd));
    received_.insert(owner);
    changed = true;
  }
  return changed;
}

bool KnowledgeView::add_pd(ProcessId owner, const IdSet& pd) {
  if (received_.contains(owner)) return learn(owner, pd);
  return add_pd(owner, std::make_shared<const IdSet>(pd));
}

bool KnowledgeView::learn(ProcessId owner, const IdSet& pd) {
  const bool changed = known_.insert(owner);
  return known_.insert_all(pd) > 0 || changed;
}

const IdSet* KnowledgeView::pd_of(ProcessId owner) const {
  const auto& owners = received_.values();
  const auto at = std::lower_bound(owners.begin(), owners.end(), owner);
  if (at == owners.end() || *at != owner) return nullptr;
  return pds_[static_cast<std::size_t>(at - owners.begin())].get();
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
  view.received_ = vertices;
  view.pds_.reserve(vertices.size());
  for (ProcessId id : vertices) {
    view.pds_.push_back(std::make_shared<const IdSet>(g.out_neighbors(id)));
  }
  return view;
}

}  // namespace bftcup::protocol
