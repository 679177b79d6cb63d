// Membership-engine throughput: the algorithmic core behind every PD merge.
//
// One workload, discovery/exhaustive, at n ∈ {16, 64, 128} processes: full
// run_scenario wall time (discovery to membership to decision) on a
// generated CUPFT system, every node evaluating per merge. Each n runs
// cold (`caching(false)`: no shared evaluation memo, no signature memo —
// the pre-engine code path) and cached (both memos on).
//
// Emits BENCH_membership.json (one row per n: cached timing + speedup vs
// cold) so the repo's perf trajectory is recorded;
// tools/check_bench_regression.py gates CI on the speedups.
//
// Usage: bench_membership [output.json] [--quick]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cup/scenario_builder.hpp"

namespace bftcup::bench {
namespace {

/// One timed leg: three seeds of the discovery workload, caches on or off.
struct Leg {
  std::uint64_t evals = 0;
  double seconds = 0.0;
  // Where the run's crypto/search effort went.
  std::uint64_t eval_hits = 0;
  std::uint64_t sig_computed = 0;
  std::uint64_t sig_hits = 0;

  [[nodiscard]] double evals_per_sec() const {
    return seconds > 0 ? static_cast<double>(evals) / seconds : 0.0;
  }
};

/// A cold/cached pair measured back to back at one n.
struct Pair {
  std::size_t n = 0;
  Leg cold;
  Leg cached;

  [[nodiscard]] double speedup() const {
    return cold.seconds > 0 && cached.seconds > 0
               ? cold.seconds / cached.seconds
               : 0.0;
  }
};

/// Full simulation: discovery to membership to decision, every node
/// evaluating per merge. Cached shares the evaluation memo across nodes and
/// memoizes signatures. Three seeds per leg: a single ~100 ms run is too
/// small a quantum for a gated wall-time ratio on a busy machine (counters
/// are summed; the seconds are timed here).
Leg run_discovery(std::size_t n, bool cached) {
  Leg leg;
  const double t0 = now_seconds();
  for (std::uint64_t seed : {11, 12, 13}) {
    const auto report = cup::ScenarioBuilder(make_sharded_graph(n))
                            .mode(cup::Mode::kCupft)
                            .seed(seed)
                            .horizon(400'000)
                            .caching(cached)
                            .run();
    leg.evals += report.evaluations;
    leg.eval_hits += report.eval_cache_hits;
    leg.sig_computed += report.signatures_verified;
    leg.sig_hits += report.signatures_cached;
  }
  leg.seconds = now_seconds() - t0;
  return leg;
}

/// The recorded speedup_vs_cold must survive scheduler hiccups *and*
/// clock-frequency drift across a ~1 s bench. Each rep times cold and
/// cached back to back (drift cancels within the pair), a discarded warmup
/// rep absorbs first-touch page faults, and the *median* per-rep ratio is
/// recorded (best-of couples the two sides to different hiccups; the median
/// pair keeps them coupled).
Pair timed_discovery_pair(std::size_t n) {
  constexpr int kReps = 6;
  std::vector<Pair> pairs;
  for (int rep = 0; rep <= kReps; ++rep) {
    // Alternate which side runs first: whichever leg follows the other
    // inherits its freshly freed allocator pages, and that small edge must
    // not land on one side systematically.
    const bool cold_first = rep % 2 == 0;
    Pair pair;
    pair.n = n;
    for (int leg = 0; leg < 2; ++leg) {
      const bool cached = (leg == 0) != cold_first;
      (cached ? pair.cached : pair.cold) = run_discovery(n, cached);
    }
    if (rep > 0) pairs.push_back(pair);  // drop warmup
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.speedup() < b.speedup();
  });
  return pairs[pairs.size() / 2];
}

void write_json(const std::string& path, const std::vector<Pair>& pairs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_membership: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"membership\",\n");
  std::fprintf(f, "  \"baseline_commit\": \"3374ac2 (pre incremental membership engine)\",\n");
  std::fprintf(f, "  \"results\": [\n");
  bool first = true;
  for (const Pair& p : pairs) {
    const Leg& r = p.cached;
    std::fprintf(f,
                 "%s    {\"workload\": \"discovery\", \"strategy\": "
                 "\"exhaustive\", \"n\": %zu, \"evals\": %llu, \"seconds\": "
                 "%.6f, \"evals_per_sec\": %.0f, \"cold_seconds\": %.6f, "
                 "\"speedup_vs_cold\": %.3f, \"eval_hits\": %llu, "
                 "\"signatures_computed\": %llu, \"signatures_memoized\": "
                 "%llu, \"gate\": true}",
                 first ? "" : ",\n", p.n,
                 static_cast<unsigned long long>(r.evals), r.seconds,
                 r.evals_per_sec(), p.cold.seconds, p.speedup(),
                 static_cast<unsigned long long>(r.eval_hits),
                 static_cast<unsigned long long>(r.sig_computed),
                 static_cast<unsigned long long>(r.sig_hits));
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

void print_leg(std::size_t n, const char* mode, const Leg& leg,
               double speedup) {
  std::printf("%-14s %-11s %-12s %5zu %9llu %10.3f %12.0f %8.2fx\n",
              "discovery", "exhaustive", mode, n,
              static_cast<unsigned long long>(leg.evals), leg.seconds,
              leg.evals_per_sec(), speedup);
}

}  // namespace
}  // namespace bftcup::bench

int main(int argc, char** argv) {
  using namespace bftcup::bench;
  std::string out = "BENCH_membership.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out = argv[i];
    }
  }

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16, 64}
            : std::vector<std::size_t>{16, 64, 128};

  std::vector<Pair> pairs;
  std::printf("%-14s %-11s %-12s %5s %9s %10s %12s %9s\n", "workload",
              "strategy", "mode", "n", "evals", "seconds", "evals/sec",
              "speedup");
  for (std::size_t n : sizes) {
    pairs.push_back(timed_discovery_pair(n));
    print_leg(n, "cold", pairs.back().cold, 0.0);
    print_leg(n, "cached", pairs.back().cached, pairs.back().speedup());
  }
  write_json(out, pairs);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
