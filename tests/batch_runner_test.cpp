#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "cup/batch_runner.hpp"

namespace bftcup::cup {
namespace {

RunRecord record(std::string scenario, std::uint64_t seed,
                 const char* verdict, std::int64_t latency,
                 std::uint64_t messages) {
  RunRecord r;
  r.scenario = std::move(scenario);
  r.seed = seed;
  r.verdict = verdict;
  r.terminated = std::string(verdict) == "SOLVED";
  r.agreement = std::string(verdict) != "AGREEMENT-VIOLATED";
  r.latency = latency;
  r.messages = messages;
  r.delivered = messages;
  r.bytes = messages * 100;
  r.value = 1001;
  r.digest = "d" + std::to_string(seed);
  return r;
}

// ------------------------------------------------------------- Sweep ----

TEST(SweepTest, ExpansionCountsScenariosTimesSeeds) {
  Sweep sweep;
  sweep.add(ScenarioRegistry::paper(), "fig1b/silent")
      .add(ScenarioRegistry::paper(), "fig1b/wrong-value")
      .seeds(10, 3);
  EXPECT_EQ(sweep.scenario_count(), 2u);
  EXPECT_EQ(sweep.run_count(), 6u);

  const auto points = sweep.expand();
  ASSERT_EQ(points.size(), 6u);
  // Deterministic order: scenarios in insertion order, seeds ascending.
  EXPECT_EQ(points[0].scenario, "fig1b/silent");
  EXPECT_EQ(points[0].seed, 10u);
  EXPECT_EQ(points[2].seed, 12u);
  EXPECT_EQ(points[3].scenario, "fig1b/wrong-value");
  // The seed axis reaches the simulator options.
  EXPECT_EQ(points[4].config.sim.seed, 11u);
}

TEST(SweepTest, TagExpansionAddsEveryTaggedScenario) {
  Sweep sweep;
  sweep.add_tag(ScenarioRegistry::paper(), "table1").seeds(1, 2);
  EXPECT_EQ(sweep.scenario_count(), 9u);
  EXPECT_EQ(sweep.run_count(), 18u);
}

TEST(SweepTest, AxisNamesPointsAfterTheValue) {
  Sweep sweep;
  sweep.axis("gst=", {0, 100, 200}, [](int gst) {
    return ScenarioRegistry::paper()
        .builder("fig1b/silent")
        .gst(gst);
  });
  const auto points = sweep.expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[1].scenario, "gst=100");
  EXPECT_EQ(points[1].config.sim.net.gst, 100);
}

TEST(SweepTest, InvalidInputsThrow) {
  Sweep sweep;
  EXPECT_THROW(sweep.add(ScenarioRegistry::paper(), "no-such"),
               ScenarioError);
  EXPECT_THROW(sweep.add_tag(ScenarioRegistry::paper(), "no-such-tag"),
               ScenarioError);
  EXPECT_THROW(sweep.seeds(1, 0), ScenarioError);
  // Names stay portable to shell one-liners, spreadsheets and grep: commas,
  // quotes, backslashes and control characters are rejected at the door.
  EXPECT_THROW(sweep.add("a,b", [](std::uint64_t) { return Scenario{}; }),
               ScenarioError);
  EXPECT_THROW(sweep.add("a\"b", [](std::uint64_t) { return Scenario{}; }),
               ScenarioError);
  EXPECT_THROW(sweep.add("a\\b", [](std::uint64_t) { return Scenario{}; }),
               ScenarioError);
  EXPECT_THROW(sweep.add("a\tb", [](std::uint64_t) { return Scenario{}; }),
               ScenarioError);
  EXPECT_THROW(sweep.add("", [](std::uint64_t) { return Scenario{}; }),
               ScenarioError);
}

// ------------------------------------------------------- BatchReport ----

TEST(BatchReportTest, AggregatesPassRateAndViolations) {
  BatchReport report({record("a", 1, "SOLVED", 100, 10),
                      record("a", 2, "SOLVED", 200, 12),
                      record("a", 3, "NO-TERMINATION", -1, 9),
                      record("b", 1, "AGREEMENT-VIOLATED", 50, 5)});
  const auto stats = report.scenarios();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].scenario, "a");
  EXPECT_EQ(stats[0].runs, 3u);
  EXPECT_EQ(stats[0].solved, 2u);
  EXPECT_NEAR(stats[0].pass_rate(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(stats[0].non_terminations, 1u);
  EXPECT_EQ(stats[0].messages_total, 31u);
  EXPECT_EQ(stats[1].agreement_violations, 1u);
}

TEST(BatchReportTest, PercentilesUseNearestRank) {
  std::vector<RunRecord> runs;
  for (std::int64_t latency = 1; latency <= 100; ++latency) {
    runs.push_back(
        record("x", static_cast<std::uint64_t>(latency), "SOLVED", latency, 1));
  }
  const auto stats = BatchReport(std::move(runs)).scenarios();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].latency_min, 1);
  EXPECT_EQ(stats[0].latency_p50, 50);  // nearest-rank: ceil(0.50*100) = 50th
  EXPECT_EQ(stats[0].latency_p99, 99);
  EXPECT_EQ(stats[0].latency_max, 100);
}

TEST(BatchReportTest, PercentileOfSingleRun) {
  const auto stats =
      BatchReport({record("x", 1, "SOLVED", 42, 1)}).scenarios();
  EXPECT_EQ(stats[0].latency_min, 42);
  EXPECT_EQ(stats[0].latency_p50, 42);
  EXPECT_EQ(stats[0].latency_p99, 42);
  EXPECT_EQ(stats[0].latency_max, 42);
}

TEST(BatchReportTest, NoCompletedRunsKeepsLatencySentinels) {
  const auto stats =
      BatchReport({record("x", 1, "NO-TERMINATION", -1, 1)}).scenarios();
  EXPECT_EQ(stats[0].latency_min, -1);
  EXPECT_EQ(stats[0].latency_p99, -1);
}

TEST(BatchReportTest, RunsCsvIsPinnedByLiteral) {
  // The one export format, pinned by a literal rather than by runs_csv():
  // a change to the header, the column order or the quoting shows up here.
  const std::string header =
      "scenario,seed,verdict,agreement,validity,terminated,latency,messages,"
      "delivered,bytes,value,digest\n";
  EXPECT_EQ(BatchReport().runs_csv(), header);

  RunRecord full = record("fig1b/silent", 1, "SOLVED", 123, 45);
  full.delivered = 40;
  full.bytes = 999;
  full.value = 1002;
  full.digest = "abc123";
  // Fields holding a comma, a quote or a line break are quoted, with
  // embedded quotes doubled (RFC 4180); everything else is verbatim.
  const BatchReport report(
      {full, record("gen3/clique{a,b},f=2", 2, "AGREEMENT-VIOLATED", -1, 3),
       record("he said \"boom\"", 3, "NO-TERMINATION", -1, 2),
       record("line1\nline2", 4, "SOLVED", 7, 1)});
  EXPECT_EQ(report.runs_csv(),
            header +
                "fig1b/silent,1,SOLVED,1,1,1,123,45,40,999,1002,abc123\n"
                "\"gen3/clique{a,b},f=2\",2,AGREEMENT-VIOLATED,0,1,0,-1,3,3,"
                "300,1001,d2\n"
                "\"he said \"\"boom\"\"\",3,NO-TERMINATION,1,1,0,-1,2,2,200,"
                "1001,d3\n"
                "\"line1\nline2\",4,SOLVED,1,1,1,7,1,1,100,1001,d4\n");
}

// -------------------------------------------------------- BatchRunner ----

TEST(BatchRunnerTest, ParallelSweepMatchesSerialBitForBit) {
  // The acceptance sweep: 100 (scenario, seed) runs, pooled vs serial.
  Sweep sweep;
  sweep.add(ScenarioRegistry::paper(), "fig1b/silent")
      .add(ScenarioRegistry::paper(), "table1/sync/known-n-known-f")
      .add(ScenarioRegistry::paper(), "table1/sync/unknown-n-known-f")
      .add(ScenarioRegistry::paper(), "fig1b/wrong-value")
      .seeds(1, 25);
  ASSERT_EQ(sweep.run_count(), 100u);

  BatchRunner::Options serial_options;
  serial_options.threads = 1;
  const BatchReport serial = BatchRunner(serial_options).run(sweep);

  BatchRunner::Options pooled_options;
  pooled_options.threads = 4;
  const BatchReport pooled = BatchRunner(pooled_options).run(sweep);

  ASSERT_EQ(serial.runs().size(), 100u);
  ASSERT_EQ(pooled.runs().size(), 100u);
  const std::vector<SweepPoint> points = sweep.expand();
  for (std::size_t i = 0; i < 100; ++i) {
    const RunRecord& p = pooled.runs()[i];
    // Byte-identical records, including the SHA-256 digest of the full
    // RunReport — the bit-replay guarantee, context recycling included:
    // the pooled records match the serial ones and a fresh context's.
    EXPECT_EQ(p, serial.runs()[i]) << p.scenario << "/" << p.seed;
    EXPECT_EQ(p, summarize(points[i].scenario, points[i].seed,
                           run_scenario(points[i].config)))
        << p.scenario << "/" << p.seed << " (fresh)";
  }
}

TEST(BatchRunnerTest, MergedMetricsArePlacementIndependent) {
  // merge_run_metrics folds every run's MetricsSnapshot with counter/bucket
  // addition and gauge max — commutative and associative — so a recycled
  // batch and one-shot runs of its points agree on every total whose
  // underlying quantity is placement-independent.
  Sweep sweep;
  sweep.add(ScenarioRegistry::paper(), "fig1b/silent")
      .add(ScenarioRegistry::paper(), "fig1b/wrong-value")
      .seeds(1, 10);

  // Every run_scenario call starts cold, so the merged one-shot totals are
  // the placement-free reference.
  std::vector<RunReport> cold;
  for (const SweepPoint& point : sweep.expand()) {
    cold.push_back(run_scenario(point.config));
  }
  const obs::MetricsSnapshot cold_total = merge_run_metrics(cold);
  ASSERT_FALSE(cold_total.empty());

  // Under recycled contexts the eval memo's hit/miss split and the search
  // enumeration volume move with each worker's warm memo, but the
  // behavior-fact totals — work *requested*, verifications computed and
  // served by each run's own signature memo, event count — are functions
  // of the runs alone and must survive any placement.
  for (const std::size_t threads : {1, 4}) {
    BatchRunner::Options options;
    options.threads = threads;
    const std::vector<RunReport> recycled =
        BatchRunner(options).run_reports(sweep.expand());
    const obs::MetricsSnapshot recycled_total = merge_run_metrics(recycled);
    EXPECT_EQ(recycled_total.counter("eval.requested"),
              cold_total.counter("eval.requested"))
        << threads;
    EXPECT_EQ(recycled_total.counter("sig.verified"),
              cold_total.counter("sig.verified"))
        << threads;
    EXPECT_EQ(recycled_total.counter("sig.cached"),
              cold_total.counter("sig.cached"))
        << threads;
    EXPECT_EQ(recycled_total.counter("sim.events"),
              cold_total.counter("sim.events"))
        << threads;
    EXPECT_EQ(recycled_total.counter("engine.big_scc_fallbacks"),
              cold_total.counter("engine.big_scc_fallbacks"))
        << threads;

    // Merge order must not matter: folding the reports in reverse yields
    // the same totals (the associativity/commutativity everything above
    // rests on).
    std::vector<RunReport> reversed(recycled.rbegin(), recycled.rend());
    EXPECT_EQ(merge_run_metrics(reversed), recycled_total) << threads;
  }
}

TEST(BatchRunnerTest, ResultsKeepSweepOrderRegardlessOfThreads) {
  Sweep sweep;
  sweep.add(ScenarioRegistry::paper(), "fig1b/silent").seeds(5, 8);
  BatchRunner::Options options;
  options.threads = 8;
  const BatchReport report = BatchRunner(options).run(sweep);
  ASSERT_EQ(report.runs().size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.runs()[i].seed, 5 + i);
  }
}

TEST(BatchRunnerTest, FactoryExceptionsPropagate) {
  Sweep sweep;
  sweep.add("boom", [](std::uint64_t) -> Scenario {
    throw ScenarioError("deliberate");
  });
  // The factory throws during expand(), before any thread starts.
  EXPECT_THROW((void)BatchRunner().run(sweep), ScenarioError);
}

/// Wraps a scenario's delay policy and throws `what` at its `at`-th send,
/// setting `*thrown` (when given) just before.
class ThrowAtSend final : public sim::DelayPolicy {
 public:
  ThrowAtSend(std::unique_ptr<sim::DelayPolicy> inner, std::uint64_t at,
              const char* what, std::atomic<bool>* thrown)
      : inner_(std::move(inner)), at_(at), what_(what), thrown_(thrown) {}

  SimTime delivery_time(ProcessId from, ProcessId to, SimTime sent, Rng& rng,
                        const sim::NetConfig& cfg) override {
    if (++sends_ == at_) {
      if (thrown_ != nullptr) thrown_->store(true);
      throw std::runtime_error(what_);
    }
    return inner_->delivery_time(from, to, sent, rng, cfg);
  }

 private:
  std::unique_ptr<sim::DelayPolicy> inner_;
  std::uint64_t at_;
  const char* what_;
  std::atomic<bool>* thrown_;
  std::uint64_t sends_ = 0;
};

/// Wraps a scenario's delay policy and holds the run at its first send
/// until `*release` is set.
class WaitAtFirstSend final : public sim::DelayPolicy {
 public:
  WaitAtFirstSend(std::unique_ptr<sim::DelayPolicy> inner,
                  const std::atomic<bool>* release)
      : inner_(std::move(inner)), release_(release) {}

  SimTime delivery_time(ProcessId from, ProcessId to, SimTime sent, Rng& rng,
                        const sim::NetConfig& cfg) override {
    if (!waited_) {
      waited_ = true;
      while (!release_->load()) std::this_thread::yield();
    }
    return inner_->delivery_time(from, to, sent, rng, cfg);
  }

 private:
  std::unique_ptr<sim::DelayPolicy> inner_;
  const std::atomic<bool>* release_;
  bool waited_ = false;
};

SweepPoint throwing_point(const std::string& name, std::uint64_t at,
                          const char* what,
                          std::atomic<bool>* thrown = nullptr) {
  Scenario config = ScenarioRegistry::paper().builder(name, 1).build();
  config.make_policy = [inner = config.make_policy, at, what, thrown] {
    return std::make_unique<ThrowAtSend>(
        inner ? inner() : std::make_unique<sim::RandomDelayPolicy>(), at,
        what, thrown);
  };
  return {name, 1, std::move(config)};
}

TEST(BatchRunnerTest, ReportsTheLowestFailingPointAtAnyThreadCount) {
  // Point 0 fails late (tens of ms in), point 1 at once: a pool sees
  // point 1 fail first, but a serial sweep never gets past point 0, and
  // neither may the report.
  const std::vector<SweepPoint> points = {
      throwing_point("fig2/system-ab-naive", 50'000, "point 0"),
      throwing_point("fig1b/silent", 1, "point 1"),
  };
  for (const std::size_t threads : {1, 2, 4}) {
    BatchRunner::Options options;
    options.threads = threads;
    const BatchRunner runner(options);
    try {
      (void)runner.run(points);
      ADD_FAILURE() << "run did not throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "point 0") << "run, " << threads << " threads";
    }
    try {
      (void)runner.run_reports(points);
      ADD_FAILURE() << "run_reports did not throw at " << threads
                    << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "point 0")
          << "run_reports, " << threads << " threads";
    }
  }
}

TEST(BatchRunnerTest, StopsClaimingPointsAfterAFailure) {
  // Point 0 throws at its first send, and every other point waits at its
  // first send until it has. By then each other worker holds one point;
  // once the failure is stored, no worker may start a point above it, so
  // a pool starts about one point per thread, not all 200.
  for (const std::size_t threads : {2, 4}) {
    std::atomic<std::size_t> started{0};
    std::atomic<bool> thrown{false};
    std::vector<SweepPoint> points = {
        throwing_point("fig1b/silent", 1, "point 0", &thrown)};
    for (std::uint64_t seed = 2; seed <= 200; ++seed) {
      Scenario config =
          ScenarioRegistry::paper().builder("fig1b/silent", seed).build();
      config.make_policy = [inner = config.make_policy, &thrown] {
        return std::make_unique<WaitAtFirstSend>(
            inner ? inner() : std::make_unique<sim::RandomDelayPolicy>(),
            &thrown);
      };
      points.push_back({"fig1b/silent", seed, std::move(config)});
    }
    for (SweepPoint& point : points) {
      point.config.make_policy = [make = point.config.make_policy, &started] {
        started.fetch_add(1);
        return make();
      };
    }

    BatchRunner::Options options;
    options.threads = threads;
    try {
      (void)BatchRunner(options).run(points);
      ADD_FAILURE() << "run did not throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "point 0") << threads << " threads";
    }
    EXPECT_LE(started.load(), 2 * threads) << threads << " threads";
  }
}

TEST(BatchRunnerTest, SolvedScenariosReportAsSolvedInAggregate) {
  Sweep sweep;
  sweep.add(ScenarioRegistry::paper(), "fig1b/silent").seeds(1, 3);
  const BatchReport report = BatchRunner().run(sweep);
  const auto stats = report.scenarios();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].runs, 3u);
  EXPECT_EQ(stats[0].solved, 3u);
  EXPECT_GT(stats[0].latency_p50, 0);
  EXPECT_GE(stats[0].latency_max, stats[0].latency_p99);
  EXPECT_GE(stats[0].latency_p99, stats[0].latency_p50);
  EXPECT_GE(stats[0].latency_p50, stats[0].latency_min);
}

}  // namespace
}  // namespace bftcup::cup
