// Large-n frontier: does the stack hold up when the system outgrows the
// figures-scale corpus by three orders of magnitude?
//
// Two workload families, one JSON (BENCH_scale.json):
//
//  - bigscc/<certify|refute>: the big-SCC certification path of
//    sink_search at component sizes {64, 128, 256} — beyond every
//    enumeration cap, so each evaluation exercises the κ early-exit
//    certificates plus the seeded C \ D sampling. certify = complete
//    component (κ = n-1 certificate), refute = directed ring (degree-bound
//    certificate, samples all refuted).
//  - scale-<adhoc|committees>: full run_scenario (discovery to membership
//    convergence to decision) on the hierarchical generator families at
//    n ∈ {1k, 10k, 100k}, one serial run per leg. Records events/sec
//    (delivered messages over wall time) and peak RSS. Legs run in
//    ascending n so the RSS high-water mark is attributable per leg.
//
// The 1k/10k rows gate CI (tools/check_bench_regression.py); the 100k rows
// are recorded ungated (too slow for per-PR CI, tracked for the trajectory).
// Every row records host_cpus, the recording machine's core count. The
// checked-in baseline is the per-row median of three full runs on a 4-core
// host.
//
// Usage: bench_scale [output.json] [--quick] [--huge]
//   --quick  CI mode: scale legs at 1k and 10k only.
//   --huge   additionally run the n = 1M scale legs (minutes; not part of
//            the checked-in baseline).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cup/scenario_builder.hpp"
#include "graph/generators.hpp"
#include "protocol/sink_search.hpp"

namespace bftcup::bench {
namespace {

struct Result {
  std::string workload;
  std::string strategy;
  std::string mode;
  std::size_t n = 0;
  std::uint64_t events = 0;  ///< evaluations or delivered messages
  double seconds = 0.0;
  std::uint64_t peak_rss = 0;  ///< scale runs only
  std::uint64_t big_scc_fallbacks = 0;
  bool gate = true;

  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

// --- bigscc ----------------------------------------------------------------

Result run_bigscc(bool certify, std::size_t n) {
  graph::Digraph g;
  if (certify) {
    // Complete component: the κ = n-1 certificate fires, every sampled
    // C \ D is itself complete and certifies too.
    for (std::uint64_t a = 1; a <= n; ++a) {
      for (std::uint64_t b = 1; b <= n; ++b) {
        if (a != b) g.add_edge(ProcessId(a), ProcessId(b));
      }
    }
  } else {
    // Directed ring: κ = 1 by the degree-bound certificate; every sampled
    // removal breaks the ring (κ = 0) and is refuted.
    for (std::uint64_t i = 1; i <= n; ++i) {
      g.add_edge(ProcessId(i), ProcessId(i % n + 1));
    }
  }
  const auto view = protocol::KnowledgeView::omniscient(g);

  const protocol::StructuredSinkSearch search;

  const std::size_t reps = certify ? 64 : 256;
  std::size_t candidates_seen = 0;
  const double t0 = now_seconds();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    candidates_seen += search.candidates(view).size();
  }
  const double elapsed = now_seconds() - t0;
  volatile std::size_t sink = candidates_seen;
  (void)sink;

  Result r;
  r.workload = "bigscc";
  r.strategy = certify ? "certify" : "refute";
  r.mode = "structured";
  r.n = n;
  r.events = reps;
  r.seconds = elapsed;
  return r;
}

Result best_bigscc(bool certify, std::size_t n) {
  Result best = run_bigscc(certify, n);
  for (int rep = 1; rep < 3; ++rep) {
    Result r = run_bigscc(certify, n);
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

// --- scale runs ------------------------------------------------------------

Result run_scale(const char* family, std::size_t total, bool gate) {
  Rng rng(0xbf7c0bULL + total);
  graph::generators::GeneratedSystem sys;
  if (std::strcmp(family, "adhoc") == 0) {
    graph::generators::AdhocMeshParams params;
    params.total = total;
    sys = graph::generators::adhoc_mesh(params, rng);
  } else {
    graph::generators::HierarchyParams params;
    params.total = total;
    sys = graph::generators::committee_of_committees(params, rng);
  }

  // Structured search with a small removal budget: per-view components are
  // rings/singletons plus the root clique, so each evaluation is a handful
  // of κ certificates. The shared eval memo stays off — hashing a canonical
  // view per merge is pure overhead when every view is distinct by
  // construction (100k nodes each converge through a different PD order).
  protocol::SearchOptions options;
  options.removal_cap = 1;
  options.big_scc_samples = 4;
  auto search = std::make_shared<protocol::StructuredSinkSearch>(options);

  const double t0 = now_seconds();
  const auto report = cup::ScenarioBuilder(sys)
                          .mode(cup::Mode::kAuth)
                          .seed(17)
                          .search(std::move(search))
                          .eval_cache(false)
                          .run();
  const double elapsed = now_seconds() - t0;
  if (!report.all_correct_decided || !report.agreement) {
    std::fprintf(stderr,
                 "bench_scale: %s n=%zu did NOT converge (decided=%d "
                 "agreement=%d) — scale claim void\n",
                 family, total, report.all_correct_decided ? 1 : 0,
                 report.agreement ? 1 : 0);
    std::exit(1);
  }

  Result r;
  r.workload = std::string("scale-") + family;
  r.strategy = "structured";
  r.mode = "auth";
  r.n = total;
  r.events = report.messages_delivered;
  r.seconds = elapsed;
  r.peak_rss = peak_rss_bytes();
  r.big_scc_fallbacks = report.big_scc_fallbacks;
  r.gate = gate;
  return r;
}

// --- output ----------------------------------------------------------------

void write_json(const std::string& path, const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot open %s\n", path.c_str());
    return;
  }
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n");
  std::fprintf(f, "  \"results\": [\n");
  bool first = true;
  for (const Result& r : results) {
    std::fprintf(f,
                 "%s    {\"workload\": \"%s\", \"strategy\": \"%s\", \"mode\": "
                 "\"%s\", \"n\": %zu, \"events\": %llu, \"seconds\": %.6f, "
                 "\"events_per_sec\": %.0f",
                 first ? "" : ",\n", r.workload.c_str(), r.strategy.c_str(),
                 r.mode.c_str(), r.n,
                 static_cast<unsigned long long>(r.events), r.seconds,
                 r.events_per_sec());
    if (r.peak_rss > 0) {
      std::fprintf(f, ", \"peak_rss_mb\": %.1f, \"big_scc_fallbacks\": %llu",
                   static_cast<double>(r.peak_rss) / (1024.0 * 1024.0),
                   static_cast<unsigned long long>(r.big_scc_fallbacks));
    }
    std::fprintf(f, ", \"host_cpus\": %u, \"gate\": %s}", host_cpus,
                 r.gate ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

void print_row(const Result& r) {
  std::printf(
      "%-18s %-10s %-10s %8zu %12llu %10.3f %14.0f %8.1f\n",
      r.workload.c_str(), r.strategy.c_str(), r.mode.c_str(), r.n,
      static_cast<unsigned long long>(r.events), r.seconds, r.events_per_sec(),
      static_cast<double>(r.peak_rss) / (1024.0 * 1024.0));
}

}  // namespace
}  // namespace bftcup::bench

int main(int argc, char** argv) {
  using namespace bftcup::bench;
  std::string out = "BENCH_scale.json";
  bool quick = false;
  bool huge = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--huge") == 0) {
      huge = true;
    } else {
      out = argv[i];
    }
  }

  std::vector<Result> results;
  std::printf("%-18s %-10s %-10s %8s %12s %10s %14s %8s\n", "workload",
              "strategy", "mode", "n", "events", "seconds", "events/sec",
              "rss_mb");

  for (const std::size_t n :
       {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
    for (const bool certify : {true, false}) {
      results.push_back(best_bigscc(certify, n));
      print_row(results.back());
    }
  }

  // Ascending n: peak_rss is a process high-water mark, so each leg's
  // reading is its own (see peak_rss_bytes).
  std::vector<std::pair<std::size_t, bool>> scale_legs = {
      {1'000, true}, {10'000, true}};
  if (!quick) scale_legs.emplace_back(100'000, false);
  if (!quick && huge) scale_legs.emplace_back(1'000'000, false);
  for (const auto& [n, gate] : scale_legs) {
    for (const char* family : {"adhoc", "committees"}) {
      results.push_back(run_scale(family, n, gate));
      print_row(results.back());
    }
  }

  write_json(out, results);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
