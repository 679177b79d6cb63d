// Strongly connected components (Tarjan, iterative).
//
// The one Tarjan in the tree is tarjan_scc below, a template over a dense
// 0..n-1 adjacency. strongly_connected_components adapts it to a Digraph
// (condensation, connectivity, the tests); the sink search runs it on a
// flat offsets/targets array built straight from a view's PDs
// (protocol/sink_search.cpp), so no Digraph is built per search.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace bftcup::graph {

/// Tarjan's linear-time SCC search over vertices 0..n-1, where `out(v)`
/// returns v's out-neighbors as a random-access range of dense indices.
/// Roots are tried in ascending index order and every out-list in its own
/// order, so the output is a function of the adjacency alone. Calls
/// `emit(members)` once per component, in Tarjan's order (reverse
/// topological order of the condensation: a component is emitted after
/// every component it can reach); `members` is a span of the component's
/// vertices in discovery order, valid only during the call. Iterative, so
/// a long path cannot overflow the call stack.
template <typename Out, typename Emit>
void tarjan_scc(std::size_t n, const Out& out, const Emit& emit) {
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  struct Vertex {
    std::size_t index;
    std::size_t lowlink;
    bool on_stack;
  };
  // Explicit DFS stack: (vertex, next-child position).
  struct Frame {
    std::size_t v;
    std::size_t child;
  };
  std::vector<Vertex> state(n, Vertex{kUnset, 0, false});
  std::vector<std::size_t> stack;
  std::vector<Frame> frames;
  stack.reserve(n);
  frames.reserve(n);
  std::size_t next_index = 0;

  const auto visit = [&](std::size_t v) {
    state[v].index = state[v].lowlink = next_index++;
    state[v].on_stack = true;
    stack.push_back(v);
    frames.push_back({v, 0});
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (state[root].index != kUnset) continue;
    visit(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = f.v;
      const auto& children = out(v);
      if (f.child < children.size()) {
        const std::size_t w = children[f.child++];
        if (state[w].index == kUnset) {
          visit(w);  // invalidates f
        } else if (state[w].on_stack) {
          state[v].lowlink = std::min(state[v].lowlink, state[w].index);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        Vertex& parent = state[frames.back().v];
        parent.lowlink = std::min(parent.lowlink, state[v].lowlink);
      }
      if (state[v].lowlink != state[v].index) continue;
      // v roots a component: it and everything pushed after it.
      auto first = stack.end();
      do {
        --first;
        state[*first].on_stack = false;
      } while (*first != v);
      emit(std::span<const std::size_t>(first, stack.end()));
      stack.erase(first, stack.end());
    }
  }
}

struct SccResult {
  /// component[v] = component id of dense vertex v; ids are 0..count-1 and
  /// assigned in reverse topological order of the condensation (Tarjan's
  /// natural order: an SCC's id is >= the ids of SCCs it can reach).
  std::vector<std::size_t> component;
  std::size_t count = 0;

  /// Members of each component as ProcessId sets.
  std::vector<IdSet> members;
};

/// tarjan_scc over g's dense indices.
[[nodiscard]] SccResult strongly_connected_components(const Digraph& g);

/// True if g (with >= 1 vertex) is strongly connected.
[[nodiscard]] bool is_strongly_connected(const Digraph& g);

}  // namespace bftcup::graph
