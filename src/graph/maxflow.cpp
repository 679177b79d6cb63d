#include "graph/maxflow.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace bftcup::graph {

void MaxFlow::reset(std::size_t node_count) {
  edges_.clear();
  // Clear only the rows the previous network used; rows keep their capacity.
  const std::size_t reused = std::min(node_count_, adj_.size());
  for (std::size_t v = 0; v < reused; ++v) adj_[v].clear();
  if (adj_.size() < node_count) adj_.resize(node_count);
  node_count_ = node_count;
}

void MaxFlow::reset_flow() {
  for (Edge& e : edges_) e.capacity = e.original;
}

void MaxFlow::add_edge(std::size_t from, std::size_t to, int capacity) {
  const std::size_t idx = edges_.size();
  edges_.push_back({to, capacity, capacity});
  edges_.push_back({from, 0, 0});
  adj_[from].push_back(idx);
  adj_[to].push_back(idx + 1);
}

bool MaxFlow::bfs(std::size_t s, std::size_t t) {
  level_.assign(node_count_, -1);
  std::deque<std::size_t> queue{s};
  level_[s] = 0;
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    for (std::size_t e : adj_[u]) {
      const Edge& edge = edges_[e];
      if (edge.capacity > 0 && level_[edge.to] < 0) {
        level_[edge.to] = level_[u] + 1;
        queue.push_back(edge.to);
      }
    }
  }
  return level_[t] >= 0;
}

int MaxFlow::dfs(std::size_t u, std::size_t t, int pushed) {
  if (u == t) return pushed;
  for (std::size_t& i = iter_[u]; i < adj_[u].size(); ++i) {
    const std::size_t e = adj_[u][i];
    Edge& edge = edges_[e];
    if (edge.capacity <= 0 || level_[edge.to] != level_[u] + 1) continue;
    const int got = dfs(edge.to, t, std::min(pushed, edge.capacity));
    if (got > 0) {
      edge.capacity -= got;
      edges_[e ^ 1].capacity += got;
      return got;
    }
  }
  return 0;
}

int MaxFlow::run(std::size_t s, std::size_t t, int limit) {
  if (s == t) return 0;
  int flow = 0;
  while (flow < limit && bfs(s, t)) {
    iter_.assign(node_count_, 0);
    while (flow < limit) {
      const int pushed = dfs(s, t, limit - flow);
      if (pushed == 0) break;
      flow += pushed;
    }
  }
  return flow;
}

}  // namespace bftcup::graph
