// Run-engine throughput: runs/sec of a long-lived RunContext vs one-shot
// run_scenario calls (a new context per run) — the unit of work
// BatchRunner and the adversary explorer execute millions of times.
//
// Workloads, each on the sharded CUPFT system (one 8-clique core + 3-cycle
// periphery, the membership engine's target regime):
//
//  - seed-sweep/<n>: one scenario crossed with 32 seeds, the BatchRunner
//    pattern. Pooling recycles the simulator's grown capacities and the
//    evaluation memo; the converged views of the topology are identical
//    across seeds, so the exponential membership searches of the steady
//    state are answered from the retained evaluation memo.
//  - replay/<n>: the same (scenario, seed) 32 times, the shrinker / CI
//    replay pattern. The evaluation memo converges to 100% hits.
//
// Neither side keeps signatures between runs: a run's keys derive from its
// seed, so every run, pooled or fresh, signs and verifies with an empty
// signature memo. Pooled and fresh legs therefore differ only in the
// simulator's setup and the evaluation memo.
//
// Each leg also cross-checks that the pooled digests match the fresh
// digests run by run — a bench that got faster by diverging would abort.
//
// Emits BENCH_runengine.json; tools/check_bench_regression.py gates CI on
// speedup_vs_fresh (a same-machine ratio, robust to runner speed).
//
// Usage: bench_runengine [output.json] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cup/run_context.hpp"
#include "cup/scenario_builder.hpp"

namespace bftcup::bench {
namespace {

constexpr std::uint64_t kRuns = 32;

struct Result {
  std::string workload;
  std::size_t n = 0;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;  ///< messages delivered per run (scale witness)
  double seconds = 0.0;          ///< pooled
  double fresh_seconds = 0.0;    ///< fresh-context baseline

  [[nodiscard]] double runs_per_sec() const {
    return seconds > 0 ? static_cast<double>(runs) / seconds : 0.0;
  }
  [[nodiscard]] double fresh_runs_per_sec() const {
    return fresh_seconds > 0 ? static_cast<double>(runs) / fresh_seconds : 0.0;
  }
  [[nodiscard]] double speedup() const {
    return fresh_seconds > 0 && seconds > 0 ? fresh_seconds / seconds : 0.0;
  }
};

cup::Scenario make_scenario(std::size_t n, std::uint64_t seed) {
  return cup::ScenarioBuilder(make_sharded_graph(n))
      .mode(cup::Mode::kCupft)
      .seed(seed)
      .horizon(400'000)
      .build();
}

std::uint64_t seed_for(const std::string& workload, std::uint64_t i) {
  return workload == "replay" ? 7 : 1 + i;
}

/// One timed leg over the workload's run list. Fresh mode calls
/// run_scenario, a new context per run; pooled mode recycles the
/// *persistent* context the caller owns, like a long-lived BatchRunner /
/// explorer worker does — the steady state the engine exists for, not the
/// first 32 runs after a cold start (the discarded warmup rep absorbs
/// those).
double run_leg(const std::string& workload, std::size_t n,
               cup::RunContext* pooled, std::uint64_t& events,
               std::vector<std::string>* digests) {
  events = 0;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    const cup::Scenario scenario = make_scenario(n, seed_for(workload, i));
    const cup::RunReport report = pooled != nullptr
                                      ? pooled->run(scenario)
                                      : cup::run_scenario(scenario);
    events += report.messages_delivered;
    if (digests != nullptr) digests->push_back(report.digest());
  }
  return now_seconds() - t0;
}

/// Interleaved fresh/pooled reps (clock drift cancels in the pair), one
/// discarded warmup rep, medians by ratio — the same discipline as the
/// gated bench_membership discovery pair.
Result measure(const std::string& workload, std::size_t n, int reps) {
  cup::RunContext pooled_context;

  // Correctness cross-check once, before timing: recycled == fresh, run by
  // run (this also serves as the pooled context's first warmup pass).
  std::vector<std::string> fresh_digests;
  std::vector<std::string> pooled_digests;
  std::uint64_t events = 0;
  (void)run_leg(workload, n, nullptr, events, &fresh_digests);
  (void)run_leg(workload, n, &pooled_context, events, &pooled_digests);
  if (fresh_digests != pooled_digests) {
    throw std::logic_error("bench_runengine: pooled digests diverged from "
                           "fresh digests on " + workload);
  }

  std::vector<std::pair<double, double>> pairs;  // (fresh, pooled)
  for (int rep = 0; rep <= reps; ++rep) {
    const bool fresh_first = rep % 2 == 0;
    double fresh = 0, pooled = 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool is_pooled = (leg == 0) != fresh_first;
      const double seconds = run_leg(
          workload, n, is_pooled ? &pooled_context : nullptr, events, nullptr);
      (is_pooled ? pooled : fresh) = seconds;
    }
    if (rep > 0) pairs.emplace_back(fresh, pooled);  // drop warmup
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return a.first * b.second < b.first * a.second;  // by fresh/pooled ratio
  });
  const auto& median = pairs[pairs.size() / 2];

  Result result;
  result.workload = workload;
  result.n = n;
  result.runs = kRuns;
  result.events = events / kRuns;
  result.fresh_seconds = median.first;
  result.seconds = median.second;
  return result;
}

void write_json(const std::string& path, const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_runengine: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"runengine\",\n");
  std::fprintf(f, "  \"baseline\": \"fresh simulator per run, same build\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "%s    {\"workload\": \"%s\", \"n\": %zu, \"runs\": %llu, "
                 "\"events_per_run\": %llu, \"seconds\": %.6f, "
                 "\"runs_per_sec\": %.0f, \"fresh_seconds\": %.6f, "
                 "\"fresh_runs_per_sec\": %.0f, \"speedup_vs_fresh\": %.3f}",
                 i == 0 ? "" : ",\n", r.workload.c_str(), r.n,
                 static_cast<unsigned long long>(r.runs),
                 static_cast<unsigned long long>(r.events), r.seconds,
                 r.runs_per_sec(), r.fresh_seconds, r.fresh_runs_per_sec(),
                 r.speedup());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace bftcup::bench

int main(int argc, char** argv) {
  using namespace bftcup::bench;
  std::string out = "BENCH_runengine.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out = argv[i];
    }
  }

  const int reps = quick ? 2 : 4;
  std::vector<Result> results;
  std::printf("%-12s %5s %6s %10s %12s %12s %9s\n", "workload", "n", "runs",
              "ev/run", "fresh r/s", "pooled r/s", "speedup");
  for (const std::string workload : {"seed-sweep", "replay"}) {
    for (const std::size_t n : quick ? std::vector<std::size_t>{16}
                                     : std::vector<std::size_t>{16, 64}) {
      results.push_back(measure(workload, n, reps));
      const Result& r = results.back();
      std::printf("%-12s %5zu %6llu %10llu %12.0f %12.0f %8.2fx\n",
                  r.workload.c_str(), r.n,
                  static_cast<unsigned long long>(r.runs),
                  static_cast<unsigned long long>(r.events),
                  r.fresh_runs_per_sec(), r.runs_per_sec(), r.speedup());
    }
  }
  write_json(out, results);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
