// cup_trace — deterministic trace inspector (README "Observability").
//
// Replays a registry scenario or a one-line explorer genome with the span
// flight recorder attached and renders what it captured:
//
//   cup_trace --scenario NAME [--seed N]     replay + Chrome trace JSON on
//                                            stdout (Perfetto-loadable)
//   cup_trace --genome '<line>'              same, from a genome artifact
//   ... --out FILE                           write the JSON to FILE instead
//   ... --summary                            human summary instead of JSON:
//                                            top spans by exclusive wall
//                                            time, per-type message counts,
//                                            headline metrics
//   ... --diff NAME2 [--seed2 N]             replay a second (scenario,
//                                            seed) and print per-span-name
//                                            aggregates side by side
//   ... --trace-capacity N                   flight-recorder ring size
//                                            (default: the builder's
//                                            kDefaultTraceCapacity)
//
// Every run is the same deterministic (scenario, seed) replay the rest of
// the suite uses — tracing is observation only, so the digest printed here
// matches cup_explore's for the identical point. Span counts, sim-time
// windows and message histograms are bit-stable across machines; only the
// wall-time columns vary run to run.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "explore/explorer.hpp"
#include "obs/trace_export.hpp"

namespace {

using namespace bftcup;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario NAME [--seed N] [--out FILE] [--summary]\n"
               "          [--diff NAME2 [--seed2 N]] [--trace-capacity N]\n"
               "       %s --genome '<genome line>' [--out FILE] [--summary]\n",
               argv0, argv0);
  return 2;
}

/// Per-span-name aggregate over one trace. Wall columns are export-only;
/// count/sim are deterministic replay facts.
struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t sim_total = 0;       ///< summed sim-time window
  std::uint64_t wall_total_ns = 0;  ///< summed inclusive wall time
  std::uint64_t wall_excl_ns = 0;   ///< summed exclusive wall time
};

/// Aggregates a trace per span name. Exclusive time uses the completion
/// order the recorder guarantees (inner spans close before their parent):
/// when a span at depth d closes, everything its direct children (depth
/// d+1) cost since the previous depth-d close has accumulated in
/// child_ns[d+1], so exclusive = inclusive - child_ns[d+1]. When the ring
/// dropped records the reconstruction is best-effort over what survived.
std::map<std::string, SpanStats> aggregate(const obs::SpanTrace& trace) {
  std::map<std::string, SpanStats> by_name;
  std::vector<std::uint64_t> child_ns;
  for (const obs::SpanRecord& rec : trace.records) {
    const std::string& name = rec.name_id < trace.names.size()
                                  ? trace.names[rec.name_id]
                                  : std::string("?");
    const std::uint64_t wall = rec.wall_end_ns - rec.wall_begin_ns;
    if (child_ns.size() < rec.depth + 2) child_ns.resize(rec.depth + 2, 0);
    std::uint64_t& nested = child_ns[rec.depth + 1];
    const std::uint64_t excl = wall > nested ? wall - nested : 0;
    nested = 0;
    child_ns[rec.depth] += wall;
    SpanStats& stats = by_name[name];
    ++stats.count;
    stats.sim_total += rec.sim_end - rec.sim_begin;
    stats.wall_total_ns += wall;
    stats.wall_excl_ns += excl;
  }
  return by_name;
}

void print_headline(const char* label, const cup::RunReport& report) {
  std::printf("%s\n", label);
  std::printf("  verdict   %s\n", report.verdict().c_str());
  std::printf("  digest    %s\n", report.digest().c_str());
  if (report.spans != nullptr) {
    std::printf("  spans     %llu started, %zu kept, %llu dropped\n",
                static_cast<unsigned long long>(report.spans->started),
                report.spans->records.size(),
                static_cast<unsigned long long>(report.spans->dropped));
  }
}

void print_summary(const cup::RunReport& report) {
  if (report.spans == nullptr) return;
  // Top spans by exclusive wall time: where the run itself spent its time,
  // with nested phases attributed to the nested span.
  std::vector<std::pair<std::string, SpanStats>> rows;
  for (auto& [name, stats] : aggregate(*report.spans)) {
    rows.emplace_back(name, stats);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.wall_excl_ns > b.second.wall_excl_ns;
  });
  std::printf("\n%-28s %10s %12s %12s %10s\n", "span", "count", "excl us",
              "incl us", "sim time");
  for (const auto& [name, stats] : rows) {
    std::printf("%-28s %10llu %12.1f %12.1f %10lld\n", name.c_str(),
                static_cast<unsigned long long>(stats.count),
                static_cast<double>(stats.wall_excl_ns) / 1000.0,
                static_cast<double>(stats.wall_total_ns) / 1000.0,
                static_cast<long long>(stats.sim_total));
  }

  std::printf("\n%-28s %10s\n", "messages sent", "count");
  for (std::size_t i = 0; i < msg::kMsgTypeCount; ++i) {
    if (report.sent_by_type[i] == 0) continue;
    std::printf("%-28s %10llu\n",
                msg::to_string(static_cast<msg::MsgType>(i)),
                static_cast<unsigned long long>(report.sent_by_type[i]));
  }

  // Hostile-wire rows (only when the wire touched the run): the headline
  // counters straight from the report, then the per-mutation-kind split
  // from the wire.* metrics family.
  if (report.frames_mutated > 0 || report.frames_rejected > 0 ||
      report.frames_lost > 0) {
    std::printf("\n%-28s %10s\n", "hostile wire", "frames");
    std::printf("%-28s %10llu\n", "mutated",
                static_cast<unsigned long long>(report.frames_mutated));
    std::printf("%-28s %10llu\n", "rejected by decoder",
                static_cast<unsigned long long>(report.frames_rejected));
    std::printf("%-28s %10llu\n", "lost (lossy policy)",
                static_cast<unsigned long long>(report.frames_lost));
    for (const auto& [name, value] : report.metrics.counters) {
      if (name.rfind("wire.mutated.", 0) == 0) {
        std::printf("%-28s %10llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }

  std::printf("\n%-28s %10s\n", "metric", "value");
  for (const auto& [name, value] : report.metrics.counters) {
    std::printf("%-28s %10llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : report.metrics.gauges) {
    std::printf("%-28s %10llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
}

void print_diff(const cup::RunReport& lhs, const cup::RunReport& rhs,
                const std::string& lhs_label, const std::string& rhs_label) {
  std::map<std::string, SpanStats> left;
  std::map<std::string, SpanStats> right;
  if (lhs.spans != nullptr) left = aggregate(*lhs.spans);
  if (rhs.spans != nullptr) right = aggregate(*rhs.spans);
  // Union of span names, alphabetical — stable output for diffs of diffs.
  std::map<std::string, bool> names;
  for (const auto& [name, _] : left) names.emplace(name, true);
  for (const auto& [name, _] : right) names.emplace(name, true);

  std::printf("\n%-28s | %10s %10s | %10s %10s | %s\n", "span",
              "count A", "count B", "sim A", "sim B", "delta");
  std::printf("A = %s, B = %s\n", lhs_label.c_str(), rhs_label.c_str());
  for (const auto& [name, _] : names) {
    const SpanStats a = left.count(name) ? left[name] : SpanStats{};
    const SpanStats b = right.count(name) ? right[name] : SpanStats{};
    const long long dcount = static_cast<long long>(b.count) -
                             static_cast<long long>(a.count);
    std::printf("%-28s | %10llu %10llu | %10lld %10lld | %+lld\n",
                name.c_str(), static_cast<unsigned long long>(a.count),
                static_cast<unsigned long long>(b.count),
                static_cast<long long>(a.sim_total),
                static_cast<long long>(b.sim_total), dcount);
  }

  std::printf("\n%-28s | %10s %10s\n", "messages sent", "A", "B");
  for (std::size_t i = 0; i < msg::kMsgTypeCount; ++i) {
    if (lhs.sent_by_type[i] == 0 && rhs.sent_by_type[i] == 0) continue;
    std::printf("%-28s | %10llu %10llu\n",
                msg::to_string(static_cast<msg::MsgType>(i)),
                static_cast<unsigned long long>(lhs.sent_by_type[i]),
                static_cast<unsigned long long>(rhs.sent_by_type[i]));
  }
  std::printf("\ndigest A  %s\ndigest B  %s  (%s)\n", lhs.digest().c_str(),
              rhs.digest().c_str(),
              lhs.digest() == rhs.digest() ? "identical" : "differ");
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string genome_line;
  std::string out_path;
  std::string diff_name;
  std::uint64_t seed = 1;
  std::uint64_t diff_seed = 1;
  std::uint64_t capacity = cup::ScenarioBuilder::kDefaultTraceCapacity;
  bool want_summary = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      const std::string_view s = argv[++i];
      // A typo'd number must be a usage error, not a silent zero or a
      // wrapped negative: from_chars takes no sign and must consume it all.
      const auto [end, ec] =
          std::from_chars(s.data(), s.data() + s.size(), out);
      return ec == std::errc{} && end == s.data() + s.size();
    };
    std::uint64_t value = 0;
    if (arg == "--scenario" && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (arg == "--genome" && i + 1 < argc) {
      genome_line = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--diff" && i + 1 < argc) {
      diff_name = argv[++i];
    } else if (arg == "--seed" && next_value(value)) {
      seed = value;
    } else if (arg == "--seed2" && next_value(value)) {
      diff_seed = value;
    } else if (arg == "--trace-capacity" && next_value(value)) {
      capacity = value;
    } else if (arg == "--summary") {
      want_summary = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (scenario_name.empty() == genome_line.empty()) return usage(argv[0]);
  if (!diff_name.empty() && scenario_name.empty()) {
    std::fprintf(stderr, "cup_trace: --diff needs --scenario for side A\n");
    return 2;
  }
  if (capacity == 0) {
    std::fprintf(stderr, "cup_trace: --trace-capacity must be nonzero\n");
    return 2;
  }

  const auto& registry = cup::ScenarioRegistry::paper();
  // Exact registry name, or a family prefix: "fig1b" resolves to the first
  // (sorted) "fig1b/..." entry, so the common figures are addressable
  // without remembering their variant suffix. Empty string = not found.
  const auto resolve_name = [&](const std::string& name) -> std::string {
    if (registry.contains(name)) return name;
    for (const std::string& candidate : registry.names()) {
      if (candidate.size() > name.size() + 1 &&
          candidate.compare(0, name.size(), name) == 0 &&
          candidate[name.size()] == '/') {
        std::fprintf(stderr, "cup_trace: resolving \"%s\" to \"%s\"\n",
                     name.c_str(), candidate.c_str());
        return candidate;
      }
    }
    return std::string();
  };
  const auto traced_run = [&](const std::string& name,
                              std::uint64_t run_seed) {
    return cup::run_scenario(
        registry.builder(name, run_seed).trace_capacity(capacity).build());
  };

  std::string label;
  cup::RunReport report;
  if (!genome_line.empty()) {
    const auto genome = explore::Genome::parse_line(genome_line);
    if (!genome || !genome->valid()) {
      std::fprintf(stderr, "cup_trace: malformed or invalid genome line\n");
      return 2;
    }
    label = "genome seed=" + std::to_string(genome->seed);
    report =
        cup::run_scenario(genome->to_builder().trace_capacity(capacity).build());
  } else {
    const std::string requested = scenario_name;
    scenario_name = resolve_name(requested);
    if (scenario_name.empty()) {
      std::fprintf(stderr, "cup_trace: unknown scenario \"%s\"\n",
                   requested.c_str());
      return 2;
    }
    label = scenario_name + " seed=" + std::to_string(seed);
    report = traced_run(scenario_name, seed);
  }

  if (!diff_name.empty()) {
    diff_name = resolve_name(diff_name);
    if (diff_name.empty()) {
      std::fprintf(stderr, "cup_trace: unknown scenario \"%s\"\n",
                   diff_name.c_str());
      return 2;
    }
    const std::string diff_label =
        diff_name + " seed=" + std::to_string(diff_seed);
    const cup::RunReport other = traced_run(diff_name, diff_seed);
    print_headline("side A", report);
    print_headline("side B", other);
    print_diff(report, other, label, diff_label);
    return 0;
  }

  if (want_summary) {
    print_headline(label.c_str(), report);
    print_summary(report);
    return 0;
  }

  if (report.spans == nullptr) {
    std::fprintf(stderr, "cup_trace: run produced no trace\n");
    return 1;
  }
  const std::string json = obs::to_chrome_trace_json(*report.spans, label);
  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cup_trace: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json;
  return 0;
}
