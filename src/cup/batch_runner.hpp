// Parallel experiment engine.
//
// A `Sweep` names a set of scenarios (inline builders, registry entries, or
// whole registry tags) crossed with a seed range; `BatchRunner` expands it
// into independent (scenario, seed) runs, executes them across a
// std::thread pool — each worker owns a recyclable RunContext, so the
// sweep is embarrassingly parallel — and aggregates a `BatchReport` with
// per-scenario pass rates, latency percentiles, traffic totals, and a
// per-run CSV export.
//
// Determinism: the simulator guarantees bit-identical replay for a
// (scenario, seed) pair, on a recycled context or a fresh one
// (BatchRunnerTest.ParallelSweepMatchesSerialBitForBit).
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cup/scenario_builder.hpp"
#include "cup/scenario_registry.hpp"

namespace bftcup::cup {

/// One expanded (scenario, seed) run.
struct SweepPoint {
  std::string scenario;
  std::uint64_t seed = 1;
  Scenario config;
};

class Sweep {
 public:
  using Factory = std::function<Scenario(std::uint64_t seed)>;

  /// Adds a scenario from an explicit factory over the seed.
  Sweep& add(std::string name, Factory factory);

  /// Adds a scenario from a builder; the sweep's seed axis overrides the
  /// builder's seed per run.
  Sweep& add(std::string name, ScenarioBuilder builder);

  /// Adds one registry entry / every entry carrying a tag.
  Sweep& add(const ScenarioRegistry& registry, std::string_view name);
  Sweep& add_tag(const ScenarioRegistry& registry, std::string_view tag);

  /// Parameter axis: one scenario per value, named `prefix + value`.
  /// `make(value)` returns a ScenarioBuilder.
  template <typename V, typename MakeBuilder>
  Sweep& axis(const std::string& prefix, std::initializer_list<V> values,
              MakeBuilder make) {
    for (const V& value : values) {
      add(prefix + std::to_string(value), make(value));
    }
    return *this;
  }

  /// Seed axis: seeds first, first+1, ..., first+count-1 (default: seed 1).
  Sweep& seeds(std::uint64_t first, std::size_t count);

  [[nodiscard]] std::size_t scenario_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t run_count() const;

  /// Builds every (scenario, seed) point, in deterministic order
  /// (scenarios in insertion order, seeds ascending).
  [[nodiscard]] std::vector<SweepPoint> expand() const;

 private:
  struct Entry {
    std::string name;
    Factory make;
  };
  std::vector<Entry> entries_;
  std::uint64_t seed_first_ = 1;
  std::size_t seed_count_ = 1;
};

/// Flattened outcome of one run: its behavior and digest, in plain scalars,
/// one CSV row each (BatchReport::runs_csv). Engine counters stay in
/// RunReport::metrics (see merge_run_metrics).
struct RunRecord {
  std::string scenario;
  std::uint64_t seed = 0;
  std::string verdict;  ///< SOLVED / NO-TERMINATION / ...
  bool agreement = true;
  bool validity = true;
  bool terminated = false;
  std::int64_t latency = -1;  ///< completion time; -1 when not all decided
  std::uint64_t messages = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t value = 0;  ///< common decided value; 0 when none
  std::string digest;       ///< RunReport::digest()

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

/// Flattens a RunReport into a RunRecord (computes the digest).
[[nodiscard]] RunRecord summarize(std::string scenario, std::uint64_t seed,
                                  const RunReport& report);

/// Batch-level aggregation of per-run metrics snapshots (RunReport::metrics,
/// src/obs/metrics.hpp), the way to get a batch's engine totals: counters
/// and histogram buckets add, gauges keep their maximum. Both operations are
/// commutative and associative, so a pooled batch and its serial replay
/// merge to identical totals for every placement-independent metric.
[[nodiscard]] obs::MetricsSnapshot merge_run_metrics(
    const std::vector<RunReport>& reports);

/// Per-scenario aggregate over a batch.
struct ScenarioStats {
  std::string scenario;
  std::size_t runs = 0;
  std::size_t solved = 0;
  std::size_t agreement_violations = 0;
  std::size_t validity_violations = 0;
  std::size_t non_terminations = 0;
  // Latency over runs that completed; -1 when none did. Percentiles use
  // the nearest-rank method.
  std::int64_t latency_min = -1;
  std::int64_t latency_p50 = -1;
  std::int64_t latency_p99 = -1;
  std::int64_t latency_max = -1;
  std::uint64_t messages_total = 0;
  std::uint64_t bytes_total = 0;

  [[nodiscard]] double pass_rate() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(solved) / static_cast<double>(runs);
  }
};

class BatchReport {
 public:
  BatchReport() = default;
  explicit BatchReport(std::vector<RunRecord> runs) : runs_(std::move(runs)) {}

  [[nodiscard]] const std::vector<RunRecord>& runs() const { return runs_; }

  /// Aggregates per scenario, in first-seen order.
  [[nodiscard]] std::vector<ScenarioStats> scenarios() const;

  /// Records for one scenario, in run order.
  [[nodiscard]] std::vector<const RunRecord*> runs_of(
      std::string_view scenario) const;

  /// One row per run under a 12-column header, RFC-4180 quoted.
  [[nodiscard]] std::string runs_csv() const;

  /// Aggregate table, aligned for terminals.
  void print_summary(std::FILE* out = stdout) const;

 private:
  std::vector<RunRecord> runs_;
};

// Width-safe single-run row formatting (the bench harnesses' table body).
void print_run_header(std::FILE* out, const char* experiment,
                      const char* claim);
void print_run_row(std::FILE* out, const std::string& name,
                   const RunReport& report);

class BatchRunner {
 public:
  struct Options {
    std::size_t threads = 0;  ///< 0 = hardware concurrency
  };

  BatchRunner() = default;
  explicit BatchRunner(Options options) : options_(options) {}

  [[nodiscard]] BatchReport run(const Sweep& sweep) const;
  [[nodiscard]] BatchReport run(std::vector<SweepPoint> points) const;

  /// Executes the points through the same pool but returns the full
  /// RunReports, indexed like `points`. The adversary explorer needs
  /// coverage features (message-type histogram, memberships) that the
  /// flattened RunRecord drops.
  [[nodiscard]] std::vector<RunReport> run_reports(
      std::vector<SweepPoint> points) const;

 private:
  Options options_;
};

}  // namespace bftcup::cup
