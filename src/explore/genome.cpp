#include "explore/genome.hpp"

#include <charconv>
#include <limits>
#include <utility>

namespace bftcup::explore {
namespace {

const char* mode_str(cup::Mode mode) {
  switch (mode) {
    case cup::Mode::kAuth: return "auth";
    case cup::Mode::kCupft: return "cupft";
    case cup::Mode::kNaive: return "naive";
  }
  return "auth";
}

std::optional<cup::Mode> parse_mode(const std::string& s) {
  if (s == "auth") return cup::Mode::kAuth;
  if (s == "cupft") return cup::Mode::kCupft;
  if (s == "naive") return cup::Mode::kNaive;
  return std::nullopt;
}

const char* byz_str(cup::ByzBehavior byz) {
  switch (byz) {
    case cup::ByzBehavior::kSilent: return "silent";
    case cup::ByzBehavior::kFakePd: return "fakepd";
    case cup::ByzBehavior::kEquivocate: return "equiv";
    case cup::ByzBehavior::kWrongValue: return "wrongval";
  }
  return "silent";
}

std::optional<cup::ByzBehavior> parse_byz(const std::string& s) {
  if (s == "silent") return cup::ByzBehavior::kSilent;
  if (s == "fakepd") return cup::ByzBehavior::kFakePd;
  if (s == "equiv") return cup::ByzBehavior::kEquivocate;
  if (s == "wrongval") return cup::ByzBehavior::kWrongValue;
  return std::nullopt;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  for (;;) {
    const auto end = text.find(sep, start);
    out.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  const auto [next, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || next != s.data() + s.size()) return std::nullopt;
  return v;
}

/// parse_u64 for the 32-bit fields (wire rate and masks, loss permille): a
/// value above UINT32_MAX is rejected, never truncated, so a parsed line
/// prints back as itself.
std::optional<std::uint32_t> parse_u32(const std::string& s) {
  const auto v = parse_u64(s);
  if (!v || *v > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(*v);
}

void append_ids(std::string& out, const IdSet& ids) {
  bool first = true;
  for (ProcessId id : ids) {
    if (!first) out += '.';
    out += std::to_string(id.raw());
    first = false;
  }
}

std::optional<IdSet> parse_ids(const std::string& s) {
  IdSet out;
  if (s.empty()) return out;
  for (const std::string& part : split(s, '.')) {
    const auto raw = parse_u64(part);
    if (!raw) return std::nullopt;
    out.insert(ProcessId(*raw));
  }
  return out;
}

void append_gene(std::string& out, const TimelineGene& gene) {
  switch (gene.kind) {
    case TimelineGene::Kind::kCrash:
      out += "crash:" + std::to_string(gene.subject.raw()) + "@" +
             std::to_string(gene.at);
      return;
    case TimelineGene::Kind::kRecover:
      out += "rec:" + std::to_string(gene.subject.raw()) + "@" +
             std::to_string(gene.at);
      return;
    case TimelineGene::Kind::kJoin:
      out += "join:" + std::to_string(gene.subject.raw()) + "@" +
             std::to_string(gene.at);
      return;
    case TimelineGene::Kind::kDrop:
      out += "drop:" + std::to_string(gene.subject.raw()) + ">" +
             std::to_string(gene.peer.raw()) + "@" + std::to_string(gene.at) +
             "-" + std::to_string(gene.until);
      return;
    case TimelineGene::Kind::kPartition:
      out += "part:";
      append_ids(out, gene.group_a);
      out += '/';
      append_ids(out, gene.group_b);
      out += "@" + std::to_string(gene.at) + "-" + std::to_string(gene.until);
      return;
  }
}

std::optional<TimelineGene> parse_gene(const std::string& s) {
  const auto colon = s.find(':');
  const auto at_pos = s.rfind('@');
  if (colon == std::string::npos || at_pos == std::string::npos ||
      at_pos < colon) {
    return std::nullopt;
  }
  const std::string kind = s.substr(0, colon);
  const std::string body = s.substr(colon + 1, at_pos - colon - 1);
  const std::string when = s.substr(at_pos + 1);

  TimelineGene gene;
  const bool windowed = kind == "drop" || kind == "part";
  if (windowed) {
    const auto dash = when.find('-');
    if (dash == std::string::npos) return std::nullopt;
    const auto at = parse_u64(when.substr(0, dash));
    const auto until = parse_u64(when.substr(dash + 1));
    if (!at || !until) return std::nullopt;
    gene.at = static_cast<SimTime>(*at);
    gene.until = static_cast<SimTime>(*until);
  } else {
    const auto at = parse_u64(when);
    if (!at) return std::nullopt;
    gene.at = static_cast<SimTime>(*at);
  }

  if (kind == "crash" || kind == "rec" || kind == "join") {
    const auto subject = parse_u64(body);
    if (!subject) return std::nullopt;
    gene.kind = kind == "crash" ? TimelineGene::Kind::kCrash
                : kind == "rec" ? TimelineGene::Kind::kRecover
                                : TimelineGene::Kind::kJoin;
    gene.subject = ProcessId(*subject);
    return gene;
  }
  if (kind == "drop") {
    const auto arrow = body.find('>');
    if (arrow == std::string::npos) return std::nullopt;
    const auto from = parse_u64(body.substr(0, arrow));
    const auto to = parse_u64(body.substr(arrow + 1));
    if (!from || !to) return std::nullopt;
    gene.kind = TimelineGene::Kind::kDrop;
    gene.subject = ProcessId(*from);
    gene.peer = ProcessId(*to);
    return gene;
  }
  if (kind == "part") {
    const auto slash = body.find('/');
    if (slash == std::string::npos) return std::nullopt;
    const auto a = parse_ids(body.substr(0, slash));
    const auto b = parse_ids(body.substr(slash + 1));
    if (!a || !b) return std::nullopt;
    gene.kind = TimelineGene::Kind::kPartition;
    gene.group_a = *a;
    gene.group_b = *b;
    return gene;
  }
  return std::nullopt;
}

}  // namespace

cup::ScenarioBuilder Genome::to_builder() const {
  cup::ScenarioBuilder builder(graph);
  builder.f(f)
      .mode(mode)
      .byz(byz)
      .faulty(faulty)
      .gst(gst)
      .delta(delta)
      .horizon(horizon)
      .seed(seed);
  if (closure_guard) builder.closure_guard();
  if (wire_rate_pm > 0) {
    builder.wire_mutation(static_cast<double>(wire_rate_pm) / 1000.0,
                          wire_kinds, wire_types);
  }
  if (loss_pm > 0 || loss_jitter > 0) {
    builder.loss(static_cast<double>(loss_pm) / 1000.0, loss_jitter);
  }
  if (burst_len > 0) {
    builder.loss_burst(burst_start, burst_len, burst_period);
  }
  for (const auto& [owner, advertised] : fake_pds) {
    builder.fake_pd(owner, advertised);
  }
  for (const TimelineGene& gene : timeline) {
    switch (gene.kind) {
      case TimelineGene::Kind::kCrash:
        builder.crash_at(gene.subject, gene.at);
        break;
      case TimelineGene::Kind::kRecover:
        builder.recover_at(gene.subject, gene.at);
        break;
      case TimelineGene::Kind::kJoin:
        builder.join_at(gene.subject, gene.at);
        break;
      case TimelineGene::Kind::kDrop:
        builder.drop_link(gene.subject, gene.peer, gene.at, gene.until);
        break;
      case TimelineGene::Kind::kPartition:
        builder.partition(gene.group_a, gene.group_b, gene.at, gene.until);
        break;
    }
  }
  return builder;
}

bool Genome::valid() const {
  try {
    (void)to_builder().build();
    return true;
  } catch (const cup::ScenarioError&) {
    return false;
  }
}

std::string Genome::to_line() const {
  std::string out = "v=";
  append_ids(out, graph.vertices());
  out += "|e=";
  bool first = true;
  for (const auto& [from, to] : edges_of(graph)) {
    if (!first) out += ';';
    out += std::to_string(from.raw()) + ">" + std::to_string(to.raw());
    first = false;
  }
  out += "|f=" + std::to_string(f);
  out += std::string("|mode=") + mode_str(mode);
  out += std::string("|byz=") + byz_str(byz);
  out += "|faulty=";
  append_ids(out, faulty);
  out += "|fpd=";
  first = true;
  for (const auto& [owner, advertised] : fake_pds) {
    if (!first) out += ';';
    out += std::to_string(owner.raw()) + ":";
    append_ids(out, advertised);
    first = false;
  }
  out += "|tl=";
  first = true;
  for (const TimelineGene& gene : timeline) {
    if (!first) out += ';';
    append_gene(out, gene);
    first = false;
  }
  out += "|gst=" + std::to_string(gst);
  out += "|delta=" + std::to_string(delta);
  out += "|hz=" + std::to_string(horizon);
  out += "|seed=" + std::to_string(seed);
  out += std::string("|cg=") + (closure_guard ? "1" : "0");
  // Hostile-wire keys are emitted only when they carry non-default content:
  // a wire-free genome's line is byte-identical to its pre-wire form, which
  // keeps the pinned corpus and the sha-derived finding names stable. Masks
  // are inert while the rate is zero, so they are (deliberately) not
  // serialized in that case — semantic equality, not field equality.
  if (wire_rate_pm > 0) {
    out += "|wm=" + std::to_string(wire_rate_pm) + ":" +
           std::to_string(wire_kinds) + ":" + std::to_string(wire_types);
  }
  if (loss_pm > 0 || loss_jitter > 0) {
    out += "|loss=" + std::to_string(loss_pm) + ":" +
           std::to_string(loss_jitter);
  }
  if (burst_len > 0) {
    out += "|burst=" + std::to_string(burst_start) + ":" +
           std::to_string(burst_len) + ":" + std::to_string(burst_period);
  }
  return out;
}

std::optional<Genome> Genome::parse_line(const std::string& line) {
  Genome genome;
  bool saw_vertices = false;
  for (const std::string& field : split(line, '|')) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "v") {
      const auto ids = parse_ids(value);
      if (!ids) return std::nullopt;
      genome.graph = graph::Digraph(*ids);
      saw_vertices = true;
    } else if (key == "e") {
      if (!saw_vertices) return std::nullopt;
      if (value.empty()) continue;
      for (const std::string& edge : split(value, ';')) {
        const auto arrow = edge.find('>');
        if (arrow == std::string::npos) return std::nullopt;
        const auto from = parse_u64(edge.substr(0, arrow));
        const auto to = parse_u64(edge.substr(arrow + 1));
        if (!from || !to) return std::nullopt;
        genome.graph.add_edge(ProcessId(*from), ProcessId(*to));
      }
    } else if (key == "f") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      genome.f = static_cast<std::size_t>(*v);
    } else if (key == "mode") {
      const auto mode = parse_mode(value);
      if (!mode) return std::nullopt;
      genome.mode = *mode;
    } else if (key == "byz") {
      const auto byz = parse_byz(value);
      if (!byz) return std::nullopt;
      genome.byz = *byz;
    } else if (key == "faulty") {
      const auto ids = parse_ids(value);
      if (!ids) return std::nullopt;
      genome.faulty = *ids;
    } else if (key == "fpd") {
      if (value.empty()) continue;
      for (const std::string& entry : split(value, ';')) {
        const auto colon = entry.find(':');
        if (colon == std::string::npos) return std::nullopt;
        const auto owner = parse_u64(entry.substr(0, colon));
        const auto members = parse_ids(entry.substr(colon + 1));
        if (!owner || !members) return std::nullopt;
        genome.fake_pds[ProcessId(*owner)] = *members;
      }
    } else if (key == "tl") {
      if (value.empty()) continue;
      for (const std::string& entry : split(value, ';')) {
        const auto gene = parse_gene(entry);
        if (!gene) return std::nullopt;
        genome.timeline.push_back(*gene);
      }
    } else if (key == "gst") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      genome.gst = static_cast<SimTime>(*v);
    } else if (key == "delta") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      genome.delta = static_cast<SimTime>(*v);
    } else if (key == "hz") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      genome.horizon = static_cast<SimTime>(*v);
    } else if (key == "seed") {
      const auto v = parse_u64(value);
      if (!v) return std::nullopt;
      genome.seed = *v;
    } else if (key == "cg") {
      if (value != "0" && value != "1") return std::nullopt;
      genome.closure_guard = value == "1";
    } else if (key == "wm") {
      const auto parts = split(value, ':');
      if (parts.size() != 3) return std::nullopt;
      const auto rate = parse_u32(parts[0]);
      const auto kinds = parse_u32(parts[1]);
      const auto types = parse_u32(parts[2]);
      if (!rate || !kinds || !types) return std::nullopt;
      genome.wire_rate_pm = *rate;
      genome.wire_kinds = *kinds;
      genome.wire_types = *types;
    } else if (key == "loss") {
      const auto parts = split(value, ':');
      if (parts.size() != 2) return std::nullopt;
      const auto pm = parse_u32(parts[0]);
      const auto jitter = parse_u64(parts[1]);
      if (!pm || !jitter) return std::nullopt;
      genome.loss_pm = *pm;
      genome.loss_jitter = static_cast<SimTime>(*jitter);
    } else if (key == "burst") {
      const auto parts = split(value, ':');
      if (parts.size() != 3) return std::nullopt;
      const auto start = parse_u64(parts[0]);
      const auto len = parse_u64(parts[1]);
      const auto period = parse_u64(parts[2]);
      if (!start || !len || !period) return std::nullopt;
      genome.burst_start = static_cast<SimTime>(*start);
      genome.burst_len = static_cast<SimTime>(*len);
      genome.burst_period = static_cast<SimTime>(*period);
    } else {
      return std::nullopt;
    }
  }
  if (!saw_vertices) return std::nullopt;
  return genome;
}

graph::Digraph without_edge(const graph::Digraph& g, ProcessId from,
                            ProcessId to) {
  graph::Digraph out(g.vertices());
  for (const auto& [a, b] : edges_of(g)) {
    if (a == from && b == to) continue;
    out.add_edge(a, b);
  }
  return out;
}

Genome without_vertex(const Genome& g, ProcessId v) {
  Genome out = g;
  IdSet keep = g.graph.vertices();
  keep.erase(v);
  out.graph = g.graph.induced(keep);
  out.faulty.erase(v);
  out.fake_pds.erase(v);
  out.timeline.clear();
  for (TimelineGene gene : g.timeline) {
    switch (gene.kind) {
      case TimelineGene::Kind::kCrash:
      case TimelineGene::Kind::kRecover:
      case TimelineGene::Kind::kJoin:
        if (gene.subject == v) continue;
        break;
      case TimelineGene::Kind::kDrop:
        if (gene.subject == v || gene.peer == v) continue;
        break;
      case TimelineGene::Kind::kPartition:
        gene.group_a.erase(v);
        gene.group_b.erase(v);
        if (gene.group_a.empty() || gene.group_b.empty()) continue;
        break;
    }
    out.timeline.push_back(std::move(gene));
  }
  return out;
}

std::vector<std::pair<ProcessId, ProcessId>> edges_of(const graph::Digraph& g) {
  std::vector<std::pair<ProcessId, ProcessId>> out;
  out.reserve(g.edge_count());
  for (ProcessId from : g.vertices()) {
    for (ProcessId to : g.out_neighbors(from)) {
      out.emplace_back(from, to);
    }
  }
  return out;
}

}  // namespace bftcup::explore
