// End-to-end benchmark harness (README.md in this directory). Runs one
// workload for a given time and prints, as the last line of stdout, one JSON
// object: whether every output was correct, how many runs were attempted and
// failed, and the metrics with their units. --trace 0 measures the
// end-to-end metrics with tracing off; --trace 1 is the separate traced run
// that splits a workload's wall time by layer.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--smoke]
//   e2e_bench --self-test

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hex.hpp"
#include "common/sys_resource.hpp"
#include "crypto/sha256.hpp"
#include "cup/batch_runner.hpp"
#include "cup/run_context.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace bftcup::e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// The flight recorder's ring grows on demand up to its capacity, so an
/// unbounded capacity costs nothing up front and never drops a span.
constexpr std::size_t kUnboundedTrace =
    std::numeric_limits<std::size_t>::max();

/// The traced run replays every this-many-th point of the pass, serially.
constexpr std::size_t kTraceStride = 10;

/// Points per worker in one run_reports call of the reference pass: enough
/// to keep every worker busy, few enough that the full reports held at once
/// stay small next to what a pass itself needs.
constexpr std::size_t kReferenceChunkPerWorker = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t nanos_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  bool smoke = false;
  bool self_test = false;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool digests_match = true;  ///< every replay reproduced the reference
  std::uint64_t spans_dropped = 0;
  std::vector<Metric> metrics;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--self-test") {
      (arg == "--smoke" ? o.smoke : o.self_test) = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    const char* end = value.data() + value.size();
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      if (std::from_chars(value.data(), end, o.seed).ptr != end) {
        return std::nullopt;
      }
    } else if (arg == "--seconds") {
      if (std::from_chars(value.data(), end, o.seconds).ptr != end ||
          !(o.seconds >= 0)) {
        return std::nullopt;
      }
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1" ? 1 : 0;
    } else if (arg == "--commit") {
      o.commit = value;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() && !o.self_test) return std::nullopt;
  return o;
}

/// CPUs this process may run on (the affinity mask, which a container's
/// cpuset narrows; hardware_concurrency counts the whole machine).
std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

bool is_failure(const Workload& w, bool agreement, bool validity,
                bool all_decided) {
  if (!agreement || !validity) return true;
  return !w.safety_only && !all_decided;
}

/// Counts one replayed run: it fails when it breaks the workload's
/// correctness rule or its digest differs from the reference run's.
void tally(Result& res, const Workload& w, const cup::RunRecord& rec,
           const std::string& reference) {
  const bool replayed = rec.digest == reference;
  res.digests_match = res.digests_match && replayed;
  res.failed += !replayed || is_failure(w, rec.agreement, rec.validity,
                                        rec.terminated);
}

/// SHA-256 over the run digests in point order: equal folds on two commits
/// mean every run of the pass behaved identically.
std::string fold_digests(const std::vector<std::string>& digests) {
  crypto::Sha256 hasher;
  for (const std::string& d : digests) {
    hasher.update(BytesView(reinterpret_cast<const std::uint8_t*>(d.data()),
                            d.size()));
  }
  return to_hex(hasher.finalize());
}

struct Setup {
  std::vector<cup::SweepPoint> points;
  std::vector<double> seconds;  ///< one per repetition
};

/// Builds the pass several times; set-up time is the median, so one noisy
/// repetition cannot move it.
Setup set_up(const Workload& w, const Options& o) {
  Setup s;
  const int reps = o.smoke ? 1 : 9;
  for (int r = 0; r < reps; ++r) {
    s.points = {};  // one built pass alive at a time, as in a user's sweep
    const auto t0 = Clock::now();
    s.points = w.make_points(o.seed, o.smoke);
    s.seconds.push_back(seconds_since(t0));
  }
  std::printf("e2e setup points=%zu reps=%d median_s=%.6f\n",
              s.points.size(), reps, median(s.seconds));
  return s;
}

double require(const Percentile& p, const char* what) {
  if (!p.value) {
    throw std::runtime_error(std::string(what) + " is not supported by " +
                             std::to_string(p.samples) + " samples");
  }
  return *p.value;
}

double ratio(double part, double whole) {
  return whole == 0 ? 0.0 : part / whole;
}

Result run_end_to_end(const Workload& w, const Options& o,
                      std::size_t threads) {
  Result res;
  Setup setup = set_up(w, o);
  const std::size_t count = setup.points.size();
  const double n = static_cast<double>(count);
  cup::BatchRunner::Options runner_options;
  runner_options.threads = threads;
  const cup::BatchRunner runner(runner_options);

  // Untimed reference pass: its full reports give the protocol metrics and
  // the digests every timed pass must reproduce, and it lets the allocator
  // and page cache settle before timing. It runs in chunks whose reports are
  // dropped once read, so the process high-water mark stays that of a user
  // sweep, which keeps only RunRecords.
  std::vector<std::string> digests;
  std::vector<double> decide_ticks;
  double all_decided = 0;
  double messages = 0;
  double bytes = 0;
  const std::size_t chunk = kReferenceChunkPerWorker * threads;
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const auto first =
        setup.points.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last =
        first + static_cast<std::ptrdiff_t>(std::min(chunk, count - begin));
    for (const cup::RunReport& r :
         runner.run_reports(std::vector<cup::SweepPoint>(first, last))) {
      digests.push_back(r.digest());
      res.failed +=
          is_failure(w, r.agreement, r.validity, r.all_correct_decided);
      all_decided += r.all_correct_decided ? 1 : 0;
      messages += static_cast<double>(r.messages_sent);
      bytes += static_cast<double>(r.bytes_sent);
      for (const auto& [who, decision] : r.decisions) {
        if (r.correct.contains(who)) {
          decide_ticks.push_back(static_cast<double>(decision.time));
        }
      }
    }
  }
  res.attempted += count;
  setup.points = {};

  // Timed passes: each one is a BatchRunner::run on freshly built points,
  // with fresh worker contexts, exactly as a user sweep runs. Building is
  // untimed; set-up time is its own metric.
  const std::size_t min_passes = o.smoke ? 1 : 3;
  std::vector<double> runs_per_s;
  const auto start = Clock::now();
  while (runs_per_s.size() < min_passes || seconds_since(start) < o.seconds) {
    std::vector<cup::SweepPoint> points = w.make_points(o.seed, o.smoke);
    const auto t0 = Clock::now();
    const cup::BatchReport batch = runner.run(std::move(points));
    runs_per_s.push_back(n / seconds_since(t0));
    for (std::size_t i = 0; i < count; ++i) {
      tally(res, w, batch.runs()[i], digests[i]);
    }
    res.attempted += count;
  }

  const Quartiles rate = quartiles(runs_per_s);
  const Percentile p50 = nearest_rank(decide_ticks, 50);
  const Percentile p99 = nearest_rank(decide_ticks, 99);
  std::printf("e2e passes=%zu runs_per_s q1=%.3f median=%.3f q3=%.3f\n",
              runs_per_s.size(), rate.q1, rate.median, rate.q3);
  std::printf("e2e decide_ticks samples=%zu p50=%.0f p99=%.0f\n",
              p50.samples, p50.value.value_or(-1), p99.value.value_or(-1));
  std::printf("e2e outputs_digest=%s\n", fold_digests(digests).c_str());

  res.metrics = {
      {"runs_per_s", rate.median, "1/s"},
      {"setup_s", median(setup.seconds), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1 << 20),
       "MiB"},
      {"decide_ticks_p50", require(p50, "decide_ticks_p50"), "ticks"},
      {"decide_ticks_p99", require(p99, "decide_ticks_p99"), "ticks"},
      {"msgs_per_run", messages / n, "msgs"},
      {"bytes_per_run", bytes / n, "bytes"},
      {"decided_frac", all_decided / n, "fraction"},
  };
  return res;
}

/// Report counters the traced run sums over its runs.
struct RunCounts {
  double events = 0;
  double sent = 0;
  double delivered = 0;
  double frames_mutated = 0;
  double frames_rejected = 0;
  double sig_verified = 0;
  double sig_cached = 0;
  double evaluations = 0;
  double eval_hits = 0;
  double big_scc_fallbacks = 0;
  double view_changes = 0;
  std::uint64_t arena_peak = 0;

  void add(const cup::RunReport& r) {
    constexpr auto kViewChange =
        static_cast<std::size_t>(msg::MsgType::kPbftViewChange);
    events += static_cast<double>(r.metrics.counter("sim.events"));
    sent += static_cast<double>(r.messages_sent);
    delivered += static_cast<double>(r.messages_delivered);
    frames_mutated += static_cast<double>(r.frames_mutated);
    frames_rejected += static_cast<double>(r.frames_rejected);
    sig_verified += static_cast<double>(r.signatures_verified);
    sig_cached += static_cast<double>(r.signatures_cached);
    evaluations += static_cast<double>(r.evaluations);
    eval_hits += static_cast<double>(r.eval_cache_hits);
    big_scc_fallbacks += static_cast<double>(r.big_scc_fallbacks);
    view_changes += static_cast<double>(r.sent_by_type[kViewChange]);
    arena_peak = std::max(arena_peak, r.arena_bytes_peak);
  }
};

Result run_layers(const Workload& w, const Options& o) {
  Result res;
  // Set-up under a harness tracer: the workload's "graph.generate" and
  // "cup.build" spans split set-up time between the generators and
  // ScenarioBuilder::build.
  SpanTimes setup_times;
  Setup setup;
  {
    obs::SpanTracer tracer(kUnboundedTrace);
    const obs::ObsScope scope(nullptr, &tracer);
    setup = set_up(w, o);
    const obs::SpanTrace trace = tracer.take();
    res.spans_dropped += trace.dropped;
    setup_times.add(trace);
  }
  std::vector<const cup::SweepPoint*> sample;
  for (std::size_t i = 0; i < setup.points.size(); i += kTraceStride) {
    sample.push_back(&setup.points[i]);
  }

  // The first untraced pass is the reference every later run must replay.
  std::vector<std::string> digests(sample.size());

  // Alternate an untraced and a traced serial pass over the sample, each on
  // a fresh context, so tracing overhead is measured on identical work.
  std::uint64_t untraced_ns = 0;
  double untraced_events = 0;
  std::uint64_t traced_ns = 0;
  std::size_t traced_runs = 0;
  SpanTimes run_times;      // the library's spans, one trace per run
  SpanTimes harness_times;  // "cup.run" / "cup.summarize" around each run
  RunCounts counts;
  const auto start = Clock::now();
  for (int round = 0; round == 0 || seconds_since(start) < o.seconds;
       ++round) {
    {
      cup::RunContext context;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        const auto t0 = Clock::now();
        const cup::RunReport report = context.run(sample[i]->config);
        const cup::RunRecord rec =
            cup::summarize(sample[i]->scenario, sample[i]->seed, report);
        untraced_ns += nanos_since(t0);
        untraced_events +=
            static_cast<double>(report.metrics.counter("sim.events"));
        if (round == 0) digests[i] = rec.digest;
        tally(res, w, rec, digests[i]);
      }
    }
    cup::RunContext context;
    obs::SpanTracer tracer(kUnboundedTrace);
    {
      const obs::ObsScope scope(nullptr, &tracer);
      for (std::size_t i = 0; i < sample.size(); ++i) {
        cup::Scenario scenario = sample[i]->config;
        scenario.trace_capacity = kUnboundedTrace;
        install_search_span(scenario);
        const auto t0 = Clock::now();
        std::optional<cup::RunReport> report;
        {
          const obs::ScopedSpan span("cup.run");
          report = context.run(scenario);
        }
        std::optional<cup::RunRecord> rec;
        {
          const obs::ScopedSpan span("cup.summarize");
          rec = cup::summarize(sample[i]->scenario, sample[i]->seed, *report);
        }
        traced_ns += nanos_since(t0);
        tally(res, w, *rec, digests[i]);
        res.spans_dropped += report->spans->dropped;
        run_times.add(*report->spans);
        counts.add(*report);
        ++traced_runs;
      }
    }
    const obs::SpanTrace harness = tracer.take();
    res.spans_dropped += harness.dropped;
    harness_times.add(harness);
    res.attempted += 2 * sample.size();
  }

  const double n = static_cast<double>(traced_runs);
  const auto per_run = [n](double total) { return total / n; };
  const auto self = [&](const char* span) {
    return per_run(run_times.self_ms(span));
  };
  const double traced_ms = static_cast<double>(traced_ns) / 1e6;
  const double untraced_s = static_cast<double>(untraced_ns) / 1e9;
  const double run_self_ms =
      harness_times.total_ms("cup.run") - run_times.total_ms("run.execute");
  const double summarize_ms = harness_times.total_ms("cup.summarize");
  // Time named layers account for: every self time except those of the
  // enclosing spans run.execute and cup.run, which hold whatever no named
  // layer inside them claimed.
  const double named_ms = run_times.all_self_ms() -
                          run_times.self_ms("run.execute") + summarize_ms;
  const double reps = static_cast<double>(setup.seconds.size());
  res.metrics = {
      {"cup.execute_self_ms_per_run", self("run.execute"), "ms"},
      {"cup.run_self_ms_per_run", per_run(run_self_ms), "ms"},
      {"cup.summarize_ms_per_run", per_run(summarize_ms), "ms"},
      {"cup.build_ms", setup_times.total_ms("cup.build") / reps, "ms"},
      {"cup.arena_bytes_peak", static_cast<double>(counts.arena_peak),
       "bytes"},
      {"graph.generate_ms", setup_times.total_ms("graph.generate") / reps,
       "ms"},
      {"sim.delivery_self_ms_per_run", self("sim.dispatch.delivery"), "ms"},
      {"sim.timer_self_ms_per_run", self("sim.dispatch.timer"), "ms"},
      {"sim.events_per_run", per_run(counts.events), "count"},
      {"sim.events_per_s", untraced_events / untraced_s, "1/s"},
      {"sim.delivered_ratio", ratio(counts.delivered, counts.sent),
       "fraction"},
      {"msg.frames_mutated_per_run", per_run(counts.frames_mutated),
       "count"},
      {"msg.frames_rejected_per_run", per_run(counts.frames_rejected),
       "count"},
      {"msg.reject_ratio", ratio(counts.frames_rejected, counts.frames_mutated),
       "fraction"},
      {"crypto.sig_verified_per_run", per_run(counts.sig_verified), "count"},
      {"crypto.sig_cached_per_run", per_run(counts.sig_cached), "count"},
      {"crypto.sig_hit_ratio",
       ratio(counts.sig_cached, counts.sig_cached + counts.sig_verified),
       "fraction"},
      {"discovery.round_self_ms_per_run", self("discovery.round"), "ms"},
      {"discovery.rounds_per_run",
       per_run(static_cast<double>(run_times.count("discovery.round"))),
       "count"},
      {"membership.self_ms_per_run",
       per_run(run_times.self_ms_prefix("membership.") +
               run_times.self_ms("eval.cache_probe")),
       "ms"},
      {"membership.search_ms_per_run",
       per_run(run_times.total_ms("membership.search")), "ms"},
      {"membership.search_calls_per_run",
       per_run(static_cast<double>(run_times.count("membership.search"))),
       "count"},
      {"membership.scc_eval_self_ms_per_run",
       self("membership.scc_eval") + self("membership.big_scc_certify"), "ms"},
      {"membership.enum_self_ms_per_run", self("membership.search"), "ms"},
      {"membership.eval_hit_ratio",
       ratio(counts.eval_hits, counts.evaluations), "fraction"},
      {"membership.big_scc_fallbacks_per_run",
       per_run(counts.big_scc_fallbacks), "count"},
      {"pbft.self_ms_per_run", per_run(run_times.self_ms_prefix("pbft.")),
       "ms"},
      {"pbft.view_changes_per_run", per_run(counts.view_changes), "count"},
      {"obs.trace_overhead_frac",
       ratio(static_cast<double>(traced_ns) - static_cast<double>(untraced_ns),
             static_cast<double>(untraced_ns)),
       "fraction"},
      {"obs.spans_dropped", static_cast<double>(res.spans_dropped), "count"},
      {"obs.coverage_frac", ratio(named_ms, traced_ms), "fraction"},
  };

  // Where the traced wall time went, by layer (README.md "Layer map").
  const double wall_ms = per_run(traced_ms);
  std::printf("e2e traced runs=%zu wall_ms_per_run=%.4f\n", traced_runs,
              wall_ms);
  for (const Metric& m : res.metrics) {
    if (std::string_view(m.name).ends_with("_ms_per_run")) {
      std::printf("e2e layer %-38s %12.4f ms/run %6.2f%%\n", m.name, m.value,
                  100.0 * m.value / wall_ms);
    }
  }
  return res;
}

void print_json(const Result& res, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error(std::string("metric ") + m.name +
                               " is not finite");
    }
    // Shortest representation that reads back as the same double.
    char number[64];
    char* end = std::to_chars(number, number + sizeof(number), m.value).ptr;
    out.append(i == 0 ? "\"" : ", \"").append(m.name);
    out.append("\": {\"value\": ").append(number, end);
    out.append(", \"unit\": \"").append(m.unit).append("\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--smoke]\n"
                 "       e2e_bench --self-test\n");
    return 2;
  }
  const Options& o = *parsed;
#ifndef NDEBUG
  std::fprintf(stderr,
               "e2e_bench: built with assertions on; its timings would not "
               "describe a release build\n");
  return 2;
#endif
  if (o.self_test) {
    const int failures = stats_self_test();
    std::printf("e2e self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown workload \"%s\"\n",
                 o.workload.c_str());
    return 2;
  }
  const std::size_t cpus = host_cpus();
  const std::size_t threads = std::min(w->max_threads, cpus);
  std::printf("e2e host nproc=%zu workers=%zu compiler=%s build=%s "
              "commit=%s\n",
              cpus, threads, E2E_COMPILER, E2E_BUILD_TYPE, o.commit.c_str());
  std::printf("e2e workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              w->name, static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace, o.smoke ? 1 : 0);
  const Result res =
      o.trace == 1 ? run_layers(*w, o) : run_end_to_end(*w, o, threads);
  const bool correct =
      res.failed == 0 && res.digests_match && res.spans_dropped == 0;
  print_json(res, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bftcup::e2e

int main(int argc, char** argv) {
  try {
    return bftcup::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 3;
  }
}
