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

bool KnowledgeView::add_known(ProcessId id) { return known_.insert(id); }

const IdSet* KnowledgeView::pd_of(ProcessId owner) const {
  auto it = pds_.find(owner);
  return it == pds_.end() ? nullptr : &it->second;
}

graph::Digraph KnowledgeView::knowledge_graph() const {
  graph::Digraph g;
  for (ProcessId id : known_) g.add_vertex(id);
  for (const auto& [owner, pd] : pds_) {
    for (ProcessId target : pd) g.add_edge(owner, target);
  }
  return g;
}

std::size_t KnowledgeView::out_reach_count(const IdSet& s1,
                                           const IdSet& targets) const {
  // |S1| · |PD| membership tests against `targets`; adaptive probe keeps
  // the quorum check linear-ish for large target sets.
  const AdaptiveIdProbe probe(targets);
  std::size_t count = 0;
  for (ProcessId i : s1) {
    const IdSet* pd = pd_of(i);
    if (pd == nullptr) continue;
    for (ProcessId t : *pd) {
      if (probe.contains(t)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

std::size_t KnowledgeView::in_degree_from(const IdSet& s1,
                                          ProcessId target) const {
  std::size_t count = 0;
  for (ProcessId i : s1) {
    const IdSet* pd = pd_of(i);
    if (pd != nullptr && pd->contains(target)) ++count;
  }
  return count;
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
