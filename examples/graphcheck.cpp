// graphcheck — validate a knowledge connectivity graph against the paper's
// models and report its sinks and core.
//
// Usage:
//   graphcheck <edge-list-file> [f] [faulty-id ...]
//   graphcheck --demo                 # runs on the paper's figures
//
// Edge-list format (see graph/graphio.hpp):
//   1 -> 2        # process 1 initially knows process 2
//   v 7           # isolated vertex
//   # comment
//
// Prints: basic stats, max k for which the graph is k-OSR, the Theorem-1
// (BFT-CUP) and Definition-2 (BFT-CUPFT) verdicts for the given fault
// configuration, every self-declarable sink with its connectivity, and the
// DOT rendering for visualization. A component beyond the search's
// enumeration cap is certified from seeded samples; a note then says the
// isSink* results above it are sampled, not exhaustive.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "graph/extended_osr.hpp"
#include "graph/figures.hpp"
#include "graph/graphio.hpp"
#include "graph/osr.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace {

using namespace bftcup;

void report(const std::string& name, const graph::Digraph& g,
            const IdSet& faulty, std::size_t f) {
  obs::MetricsRegistry metrics;
  const obs::ObsScope scope(&metrics, nullptr);
  std::printf("== %s: %zu processes, %zu knowledge edges, f=%zu, faulty={",
              name.c_str(), g.vertex_count(), g.edge_count(), f);
  for (ProcessId id : faulty) std::printf(" %s", to_string(id).c_str());
  std::printf(" }\n");

  std::printf("   max k-OSR level ............ %zu\n", graph::max_osr_k(g));

  const auto cup = graph::check_bft_cup_requirements(g, faulty, f);
  std::printf("   BFT-CUP   (Theorem 1) ...... %s\n",
              cup.satisfied ? "SATISFIED" : cup.reason.c_str());
  if (cup.satisfied) {
    std::printf("     sink of G_safe: {");
    for (ProcessId id : cup.safe_sink) std::printf(" %s", to_string(id).c_str());
    std::printf(" }\n");
  }

  const auto cupft = graph::check_bft_cupft_requirements(g, faulty, f);
  std::printf("   BFT-CUPFT (Definition 2) ... %s\n",
              cupft.satisfied ? "SATISFIED" : cupft.reason.c_str());
  if (cupft.satisfied) {
    std::printf("     core of G_safe (k=%zu): {", cupft.core_k);
    for (ProcessId id : cupft.safe_core) {
      std::printf(" %s", to_string(id).c_str());
    }
    std::printf(" }\n");
  }

  std::printf("   self-declarable sinks (isSink*):\n");
  for (const auto& sink : graph::all_sinks(g)) {
    std::printf("     k=%zu  {", sink.k());
    for (ProcessId id : sink.members) std::printf(" %s", to_string(id).c_str());
    std::printf(" }\n");
  }
  const std::uint64_t sampled =
      metrics.counter("engine.big_scc_fallbacks").value();
  if (sampled != 0) {
    std::printf(
        "   note: %llu component evaluation(s) exceeded the enumeration cap;"
        " isSink* results are sampled, not exhaustive\n",
        static_cast<unsigned long long>(sampled));
  }
  std::printf("\n");
}

int run_demo() {
  using namespace graph::figures;
  for (const auto& [name, inst] :
       {std::pair{"fig1a", fig1a()}, {"fig1b", fig1b()}, {"fig2c", fig2c()},
        {"fig3a", fig3a()}, {"fig4a", fig4a()}, {"fig4b", fig4b()}}) {
    report(name, inst.graph, inst.faulty, inst.f);
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <edge-list-file> [f] [faulty-id ...]\n"
               "       %s --demo\n",
               argv0, argv0);
  return 2;
}

/// A strict unsigned decimal argument: no sign, nothing after the digits.
std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--demo") return run_demo();
  if (argc < 2) return usage(argv[0]);

  // A typo'd f or id is a usage error, not an abort or a wrapped negative.
  std::size_t f = 1;
  bftcup::IdSet faulty;
  for (int i = 2; i < argc; ++i) {
    const std::optional<std::uint64_t> value = parse_u64(argv[i]);
    if (!value) return usage(argv[0]);
    if (i == 2) {
      f = static_cast<std::size_t>(*value);
    } else {
      faulty.insert(bftcup::ProcessId(*value));
    }
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto g = bftcup::graph::io::parse_edge_list(text.str());
  if (!g) {
    std::fprintf(stderr, "malformed edge list\n");
    return 2;
  }

  report(argv[1], *g, faulty, f);
  std::printf("%s", bftcup::graph::io::to_dot(*g, faulty).c_str());
  return 0;
}
