#include "graph/scc.hpp"

namespace bftcup::graph {

SccResult strongly_connected_components(const Digraph& g) {
  SccResult result;
  result.component.assign(g.vertex_count(), 0);
  tarjan_scc(
      g.vertex_count(), [&](std::size_t v) -> const auto& { return g.out(v); },
      [&](std::span<const std::size_t> members) {
        std::vector<ProcessId> ids;
        ids.reserve(members.size());
        for (std::size_t w : members) {
          result.component[w] = result.count;
          ids.push_back(g.id_of(w));
        }
        result.members.emplace_back(std::move(ids));
        ++result.count;
      });
  return result;
}

bool is_strongly_connected(const Digraph& g) {
  if (g.vertex_count() == 0) return false;
  return strongly_connected_components(g).count == 1;
}

}  // namespace bftcup::graph
