#include "cup/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "common/thread_annotations.hpp"
#include "cup/run_context.hpp"

namespace bftcup::cup {

// ---------------------------------------------------------------- Sweep ----

Sweep& Sweep::add(std::string name, Factory factory) {
  detail::validate_scenario_name(name);
  entries_.push_back({std::move(name), std::move(factory)});
  return *this;
}

Sweep& Sweep::add(std::string name, ScenarioBuilder builder) {
  return add(std::move(name),
             [builder = std::move(builder)](std::uint64_t seed) mutable {
               return builder.seed(seed).build();
             });
}

Sweep& Sweep::add(const ScenarioRegistry& registry, std::string_view name) {
  const ScenarioRegistry::Entry* entry = registry.find(name);
  if (entry == nullptr) {
    throw ScenarioError("Sweep: unknown registry scenario \"" +
                        std::string(name) + "\"");
  }
  return add(entry->name, [make = entry->make](std::uint64_t seed) {
    return make(seed).seed(seed).build();
  });
}

Sweep& Sweep::add_tag(const ScenarioRegistry& registry, std::string_view tag) {
  const auto names = registry.names_with_tag(tag);
  if (names.empty()) {
    throw ScenarioError("Sweep: no registry scenario carries tag \"" +
                        std::string(tag) + "\"");
  }
  for (const std::string& name : names) add(registry, name);
  return *this;
}

Sweep& Sweep::seeds(std::uint64_t first, std::size_t count) {
  if (count == 0) throw ScenarioError("Sweep: seed count must be positive");
  seed_first_ = first;
  seed_count_ = count;
  return *this;
}

std::size_t Sweep::run_count() const {
  return entries_.size() * seed_count_;
}

std::vector<SweepPoint> Sweep::expand() const {
  std::vector<SweepPoint> points;
  points.reserve(run_count());
  for (const Entry& entry : entries_) {
    for (std::size_t i = 0; i < seed_count_; ++i) {
      const std::uint64_t seed = seed_first_ + i;
      points.push_back({entry.name, seed, entry.make(seed)});
    }
  }
  return points;
}

// ----------------------------------------------------------- RunRecord ----

RunRecord summarize(std::string scenario, std::uint64_t seed,
                    const RunReport& report) {
  RunRecord record;
  record.scenario = std::move(scenario);
  record.seed = seed;
  record.verdict = report.verdict();
  record.agreement = report.agreement;
  record.validity = report.validity;
  record.terminated = report.all_correct_decided;
  record.latency = report.completion_time.value_or(-1);
  record.messages = report.messages_sent;
  record.delivered = report.messages_delivered;
  record.bytes = report.bytes_sent;
  record.value = report.common_value.value_or(0);
  record.digest = report.digest();
  return record;
}

obs::MetricsSnapshot merge_run_metrics(const std::vector<RunReport>& reports) {
  obs::MetricsSnapshot total;
  for (const RunReport& report : reports) total.merge(report.metrics);
  return total;
}

// ---------------------------------------------------------- BatchReport ----

namespace {

/// Nearest-rank percentile over an ascending vector (which is non-empty).
std::int64_t percentile(const std::vector<std::int64_t>& sorted, double p) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

}  // namespace

std::vector<ScenarioStats> BatchReport::scenarios() const {
  std::vector<ScenarioStats> stats;
  std::vector<std::vector<std::int64_t>> latencies;
  for (const RunRecord& run : runs_) {
    std::size_t index = 0;
    while (index < stats.size() && stats[index].scenario != run.scenario) {
      ++index;
    }
    if (index == stats.size()) {
      stats.push_back({});
      stats.back().scenario = run.scenario;
      latencies.emplace_back();
    }
    ScenarioStats& s = stats[index];
    ++s.runs;
    if (run.verdict == "SOLVED") ++s.solved;
    if (!run.agreement) ++s.agreement_violations;
    if (!run.validity) ++s.validity_violations;
    if (!run.terminated) ++s.non_terminations;
    if (run.latency >= 0) latencies[index].push_back(run.latency);
    s.messages_total += run.messages;
    s.bytes_total += run.bytes;
  }
  for (std::size_t i = 0; i < stats.size(); ++i) {
    auto& lat = latencies[i];
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    stats[i].latency_min = lat.front();
    stats[i].latency_max = lat.back();
    stats[i].latency_p50 = percentile(lat, 50.0);
    stats[i].latency_p99 = percentile(lat, 99.0);
  }
  return stats;
}

std::vector<const RunRecord*> BatchReport::runs_of(
    std::string_view scenario) const {
  std::vector<const RunRecord*> out;
  for (const RunRecord& run : runs_) {
    if (run.scenario == scenario) out.push_back(&run);
  }
  return out;
}

namespace {

/// RFC-4180-style field quoting: fields containing the separator, a quote,
/// or a line break are wrapped in double quotes with embedded quotes
/// doubled. Everything else is emitted verbatim.
std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string BatchReport::runs_csv() const {
  std::string out =
      "scenario,seed,verdict,agreement,validity,terminated,latency,messages,"
      "delivered,bytes,value,digest\n";
  for (const RunRecord& r : runs_) {
    out += csv_field(r.scenario);
    out += ',' + std::to_string(r.seed);
    out += ',' + csv_field(r.verdict);
    out += r.agreement ? ",1" : ",0";
    out += r.validity ? ",1" : ",0";
    out += r.terminated ? ",1" : ",0";
    out += ',' + std::to_string(r.latency);
    out += ',' + std::to_string(r.messages);
    out += ',' + std::to_string(r.delivered);
    out += ',' + std::to_string(r.bytes);
    out += ',' + std::to_string(r.value);
    out += ',' + csv_field(r.digest);
    out += '\n';
  }
  return out;
}

void BatchReport::print_summary(std::FILE* out) const {
  std::fprintf(out, "%-36s %5s %9s %7s %9s %9s %9s %12s %12s\n", "scenario",
               "runs", "pass", "viol", "lat-min", "lat-p50", "lat-p99",
               "messages", "bytes");
  for (const ScenarioStats& s : scenarios()) {
    std::fprintf(out,
                 "%-36s %5zu %8.0f%% %7zu %9" PRId64 " %9" PRId64 " %9" PRId64
                 " %12" PRIu64 " %12" PRIu64 "\n",
                 s.scenario.c_str(), s.runs, 100.0 * s.pass_rate(),
                 s.agreement_violations + s.validity_violations, s.latency_min,
                 s.latency_p50, s.latency_p99, s.messages_total, s.bytes_total);
  }
}

void print_run_header(std::FILE* out, const char* experiment,
                      const char* claim) {
  std::fprintf(out, "\n=== %s ===\n    paper claim: %s\n", experiment, claim);
  std::fprintf(out, "%-34s %-20s %10s %10s %12s\n", "scenario", "verdict",
               "latency", "messages", "value");
}

void print_run_row(std::FILE* out, const std::string& name,
                   const RunReport& report) {
  std::fprintf(out,
               "%-34s %-20s %10" PRId64 " %10" PRIu64 " %12" PRIu64 "\n",
               name.c_str(), report.verdict().c_str(),
               report.completion_time.value_or(-1), report.messages_sent,
               report.common_value.value_or(0));
}

// ---------------------------------------------------------- BatchRunner ----

BatchReport BatchRunner::run(const Sweep& sweep) const {
  return run(sweep.expand());
}

namespace {

/// Lowest-index failure slot shared by the pool's workers. The lock
/// discipline is machine-checked: `error` is GUARDED_BY the mutex, so any
/// access outside store()/take() fails the Clang -Wthread-safety build.
/// `index` (SIZE_MAX while no point has failed) changes only under the
/// mutex too, and is atomic so workers can read it without the lock.
struct FailureSlot {
  Mutex mutex;
  std::exception_ptr error BFTCUP_GUARDED_BY(mutex);
  std::atomic<std::size_t> index{std::numeric_limits<std::size_t>::max()};

  void store(std::size_t i, std::exception_ptr thrown) BFTCUP_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (i < index.load()) {
      error = std::move(thrown);
      index.store(i);
    }
  }
  [[nodiscard]] std::exception_ptr take() BFTCUP_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    return error;
  }
};

/// Drains indices [0, count) through a work-stealing std::thread pool.
/// Every worker owns one recyclable RunContext handed to each unit of work
/// it claims — the run-engine steady state. The work queue is a single
/// atomic cursor; report aggregation needs no lock because results land in
/// caller-owned slots indexed by i (disjoint per run), which also makes the
/// output order independent of thread placement. Once a point has failed,
/// a worker that claims a higher index returns without running it, since
/// the sweep will only rethrow. After the pool drains, the failure at the
/// lowest index is rethrown: the cursor hands indices out in order and
/// every index below the lowest failure still runs, so the error is the
/// one a serial run reports, whatever the thread count.
void pool_execute(std::size_t count, std::size_t requested_threads,
                  const std::function<void(std::size_t, RunContext&)>& work) {
  std::size_t threads =
      requested_threads != 0
          ? requested_threads
          : std::max(1U, std::thread::hardware_concurrency());
  threads = std::min(threads, count);

  std::atomic<std::size_t> next{0};
  FailureSlot failure;

  auto worker = [&] {
    RunContext context;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count || i > failure.index.load()) return;
      try {
        work(i, context);
      } catch (...) {
        failure.store(i, std::current_exception());
        return;
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (std::exception_ptr error = failure.take()) {
    std::rethrow_exception(error);
  }
}

}  // namespace

BatchReport BatchRunner::run(std::vector<SweepPoint> points) const {
  std::vector<RunRecord> records(points.size());
  pool_execute(points.size(), options_.threads,
               [&](std::size_t i, RunContext& context) {
                 records[i] = summarize(points[i].scenario, points[i].seed,
                                        context.run(points[i].config));
               });
  return BatchReport(std::move(records));
}

std::vector<RunReport> BatchRunner::run_reports(
    std::vector<SweepPoint> points) const {
  std::vector<RunReport> reports(points.size());
  pool_execute(points.size(), options_.threads,
               [&](std::size_t i, RunContext& context) {
                 reports[i] = context.run(points[i].config);
               });
  return reports;
}

}  // namespace bftcup::cup
