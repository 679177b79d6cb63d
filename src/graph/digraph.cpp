#include "graph/digraph.hpp"

#include <algorithm>

#include "common/bitset64.hpp"

namespace bftcup::graph {

Digraph::Digraph(const IdSet& vertices) {
  for (ProcessId id : vertices) add_vertex(id);
}

std::size_t Digraph::add_vertex(ProcessId id) {
  auto it = index_.find(id);
  if (it != index_.end()) return it->second;
  const std::size_t idx = ids_.size();
  ids_.push_back(id);
  index_.emplace(id, idx);
  out_.emplace_back();
  in_.emplace_back();
  return idx;
}

bool Digraph::add_edge(ProcessId from, ProcessId to) {
  if (from == to) return false;
  const std::size_t u = add_vertex(from);
  const std::size_t v = add_vertex(to);
  auto& adj = out_[u];
  if (std::find(adj.begin(), adj.end(), v) != adj.end()) return false;
  adj.push_back(v);
  in_[v].push_back(u);
  ++edge_count_;
  return true;
}

void Digraph::add_edge_unchecked(ProcessId from, ProcessId to) {
  if (from == to) return;
  const std::size_t u = index_.find(from)->second;
  const std::size_t v = index_.find(to)->second;
  out_[u].push_back(v);
  in_[v].push_back(u);
  ++edge_count_;
}

bool Digraph::has_vertex(ProcessId id) const {
  return index_.contains(id);
}

bool Digraph::has_edge(ProcessId from, ProcessId to) const {
  const auto u = index_of(from);
  const auto v = index_of(to);
  if (!u || !v) return false;
  const auto& adj = out_[*u];
  return std::find(adj.begin(), adj.end(), *v) != adj.end();
}

std::optional<std::size_t> Digraph::index_of(ProcessId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

IdSet Digraph::vertices() const {
  // ids_ is in insertion order; the normalizing constructor sorts once
  // instead of paying a memmove per out-of-order insert.
  return IdSet(ids_);
}

IdSet Digraph::out_neighbors(ProcessId id) const {
  IdSet result;
  if (const auto u = index_of(id)) {
    for (std::size_t v : out_[*u]) result.insert(ids_[v]);
  }
  return result;
}

IdSet Digraph::in_neighbors(ProcessId id) const {
  IdSet result;
  if (const auto u = index_of(id)) {
    for (std::size_t v : in_[*u]) result.insert(ids_[v]);
  }
  return result;
}

Digraph Digraph::induced(const IdSet& keep) const {
  // The edge filter runs |keep| · degree membership tests; the probe makes
  // each one a word lookup once keep is large and dense.
  const AdaptiveIdProbe probe(keep);
  Digraph sub;
  for (ProcessId id : keep) {
    if (has_vertex(id)) sub.add_vertex(id);
  }
  for (ProcessId id : keep) {
    const auto u = index_of(id);
    if (!u) continue;
    // out_[*u] holds each target once (add_edge de-duplicates), so the
    // projection cannot introduce duplicates either.
    for (std::size_t v : out_[*u]) {
      if (probe.contains(ids_[v])) sub.add_edge_unchecked(id, ids_[v]);
    }
  }
  return sub;
}

Digraph Digraph::undirected_counterpart() const {
  Digraph g;
  for (ProcessId id : ids_) g.add_vertex(id);
  for (std::size_t u = 0; u < ids_.size(); ++u) {
    for (std::size_t v : out_[u]) {
      g.add_edge(ids_[u], ids_[v]);
      g.add_edge(ids_[v], ids_[u]);
    }
  }
  return g;
}

bool Digraph::weakly_connected() const {
  if (ids_.size() <= 1) return true;
  std::vector<bool> seen(ids_.size(), false);
  std::vector<std::size_t> stack = {0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    auto visit = [&](std::size_t v) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        stack.push_back(v);
      }
    };
    for (std::size_t v : out_[u]) visit(v);
    for (std::size_t v : in_[u]) visit(v);
  }
  return visited == ids_.size();
}

IdSet Digraph::reachable_from(ProcessId from) const {
  const auto start = index_of(from);
  if (!start) return {};
  std::vector<bool> seen(ids_.size(), false);
  std::vector<ProcessId> collected;
  std::vector<std::size_t> stack = {*start};
  seen[*start] = true;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    collected.push_back(ids_[u]);
    for (std::size_t v : out_[u]) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  // Collect in DFS order, sort once: inserting into the sorted set inside
  // the loop is O(reach²) in memmoves.
  return IdSet(std::move(collected));
}

bool operator==(const Digraph& a, const Digraph& b) {
  if (a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count())
    return false;
  if (a.vertices() != b.vertices()) return false;
  for (std::size_t u = 0; u < a.ids_.size(); ++u) {
    const ProcessId id = a.ids_[u];
    if (a.out_neighbors(id) != b.out_neighbors(id)) return false;
  }
  return true;
}

}  // namespace bftcup::graph
