#include "graph/graphio.hpp"

#include <charconv>
#include <sstream>

namespace bftcup::graph::io {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  s = trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace

std::string to_dot(const Digraph& g, const IdSet& faulty) {
  std::ostringstream out;
  out << "digraph knowledge {\n";
  for (ProcessId v : g.vertices()) {
    out << "  p" << v.raw();
    if (faulty.contains(v)) out << " [peripheries=2, color=red]";
    out << ";\n";
  }
  for (ProcessId v : g.vertices()) {
    for (ProcessId w : g.out_neighbors(v)) {
      out << "  p" << v.raw() << " -> p" << w.raw() << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::optional<Digraph> parse_edge_list(std::string_view text) {
  Digraph g;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, end == std::string_view::npos ? std::string_view::npos
                                           : end - pos);
    pos = end == std::string_view::npos ? text.size() + 1 : end + 1;

    line = trim(line);
    if (line.empty() || line.front() == '#') continue;

    if (line.substr(0, 2) == "v ") {
      const auto v = parse_u64(line.substr(2));
      if (!v) return std::nullopt;
      g.add_vertex(ProcessId(*v));
      continue;
    }
    const std::size_t arrow = line.find("->");
    if (arrow == std::string_view::npos) return std::nullopt;
    const auto a = parse_u64(line.substr(0, arrow));
    const auto b = parse_u64(line.substr(arrow + 2));
    if (!a || !b) return std::nullopt;
    // Both endpoints are processes of the system even when the line is a
    // self-loop, which Digraph::add_edge drops before adding any vertex.
    g.add_vertex(ProcessId(*a));
    g.add_vertex(ProcessId(*b));
    g.add_edge(ProcessId(*a), ProcessId(*b));
  }
  return g;
}

std::string to_edge_list(const Digraph& g) {
  std::ostringstream out;
  for (ProcessId v : g.vertices()) {
    if (g.out_neighbors(v).empty() && g.in_neighbors(v).empty()) {
      out << "v " << v.raw() << "\n";
    }
  }
  for (ProcessId v : g.vertices()) {
    for (ProcessId w : g.out_neighbors(v)) {
      out << v.raw() << " -> " << w.raw() << "\n";
    }
  }
  return out.str();
}

}  // namespace bftcup::graph::io
