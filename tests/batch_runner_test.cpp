#include <gtest/gtest.h>

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
  // Names travel through CSV/JSON unescaped; delimiters are rejected at
  // the door so the round-trip contract holds by construction.
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

TEST(BatchReportTest, CsvRoundTrip) {
  const BatchReport report({record("fig1b/silent", 1, "SOLVED", 123, 45),
                            record("fig1b/silent", 2, "NO-TERMINATION", -1, 7),
                            record("fig2/system-ab-naive", 1,
                                   "AGREEMENT-VIOLATED", 99, 8)});
  const std::string csv = report.runs_csv();
  const BatchReport back = BatchReport::from_runs_csv(csv);
  EXPECT_EQ(back, report);
  EXPECT_EQ(back.runs_csv(), csv);
}

TEST(BatchReportTest, JsonRoundTrip) {
  const BatchReport report({record("fig1b/silent", 1, "SOLVED", 123, 45),
                            record("fig3a/cupft", 9, "NO-TERMINATION", -1, 6)});
  const std::string json = report.to_json();
  const BatchReport back = BatchReport::from_json(json);
  EXPECT_EQ(back, report);
  EXPECT_EQ(back.to_json(), json);
}

TEST(BatchReportTest, JsonRoundTripOfEmptyReport) {
  const BatchReport report;
  EXPECT_EQ(BatchReport::from_json(report.to_json()), report);
  EXPECT_EQ(BatchReport::from_runs_csv(report.runs_csv()), report);
}

TEST(BatchReportTest, HandWrittenCsvImports) {
  // The one runs CSV format, pinned by a literal rather than by runs_csv():
  // a change to the header or the column order must show up here.
  const std::string csv =
      "scenario,seed,verdict,agreement,validity,terminated,latency,messages,"
      "delivered,bytes,value,digest\n"
      "fig1b/silent,1,SOLVED,1,1,1,123,45,40,999,1002,abc123\n";
  const BatchReport report = BatchReport::from_runs_csv(csv);
  ASSERT_EQ(report.runs().size(), 1U);
  const RunRecord& r = report.runs()[0];
  EXPECT_EQ(r.scenario, "fig1b/silent");
  EXPECT_EQ(r.latency, 123);
  EXPECT_EQ(r.delivered, 40U);
  EXPECT_EQ(r.value, 1002U);
  EXPECT_EQ(r.digest, "abc123");
  EXPECT_EQ(report.runs_csv(), csv);
}

TEST(BatchReportTest, ScenarioNamesWithCommasAndQuotesRoundTrip) {
  // Generated scenario names (e.g. explorer artifacts) can contain CSV
  // metacharacters; the report layer must quote/escape rather than rely on
  // upstream name validation. Regression for the naive-split importer.
  const BatchReport report(
      {record("gen3/clique{a,b},f=2", 1, "SOLVED", 10, 5),
       record("he said \"boom\", twice", 2, "AGREEMENT-VIOLATED", -1, 3),
       record("plain-name", 3, "SOLVED", 7, 2)});

  const std::string csv = report.runs_csv();
  const BatchReport csv_back = BatchReport::from_runs_csv(csv);
  ASSERT_EQ(csv_back.runs().size(), 3U);
  EXPECT_EQ(csv_back, report);
  EXPECT_EQ(csv_back.runs_csv(), csv);
  // Unquoted names stay byte-identical to the pre-escaping format.
  EXPECT_NE(csv.find("\nplain-name,3,"), std::string::npos);

  const std::string json = report.to_json();
  const BatchReport json_back = BatchReport::from_json(json);
  EXPECT_EQ(json_back, report);
  EXPECT_EQ(json_back.to_json(), json);

  // summary_csv quotes the aggregated scenario column the same way.
  EXPECT_NE(report.summary_csv().find("\"gen3/clique{a,b},f=2\""),
            std::string::npos);
}

TEST(BatchReportTest, ScenarioNamesWithLineBreaksRoundTrip) {
  // A quoted field may span physical lines (RFC 4180); the importer must
  // split records quote-aware, not on every newline.
  const BatchReport report({record("line1\nline2", 1, "SOLVED", 10, 5),
                            record("after", 2, "SOLVED", 7, 2)});
  const BatchReport csv_back = BatchReport::from_runs_csv(report.runs_csv());
  EXPECT_EQ(csv_back, report);
  const BatchReport json_back = BatchReport::from_json(report.to_json());
  EXPECT_EQ(json_back, report);
}

TEST(BatchReportTest, UnterminatedCsvQuoteThrows) {
  const std::string bad =
      std::string(
          "scenario,seed,verdict,agreement,validity,terminated,latency,"
          "messages,delivered,bytes,value,digest\n") +
      "\"oops,1,SOLVED,1,1,1,1,1,1,1,1,abc\n";
  EXPECT_THROW(BatchReport::from_runs_csv(bad), std::invalid_argument);
}

TEST(BatchReportTest, MalformedImportsThrow) {
  EXPECT_THROW(BatchReport::from_runs_csv("nonsense header\n"),
               std::invalid_argument);
  EXPECT_THROW(BatchReport::from_json("{\"nope\":[]}"),
               std::invalid_argument);
  EXPECT_THROW(BatchReport::from_json("{\"runs\":[{\"wat\":1}]}"),
               std::invalid_argument);

  // Every field is parsed whole and strictly: a sign on an unsigned column,
  // trailing garbage, an empty number or a flag other than 0/1 is an error,
  // never a wrapped, truncated or defaulted value. The 12-column header is
  // the only format.
  const std::string header =
      "scenario,seed,verdict,agreement,validity,terminated,latency,messages,"
      "delivered,bytes,value,digest\n";
  ASSERT_NO_THROW((void)BatchReport::from_runs_csv(
      header + "a,1,SOLVED,1,1,1,123,45,40,999,1002,d\n"));
  for (const char* row : {"a,-1,SOLVED,1,1,1,123,45,40,999,1002,d",
                          "a,12abc,SOLVED,1,1,1,123,45,40,999,1002,d",
                          "a,,SOLVED,1,1,1,123,45,40,999,1002,d",
                          "a,1,SOLVED,1,1,1,5x,45,40,999,1002,d",
                          "a,1,SOLVED,yes,1,1,123,45,40,999,1002,d"}) {
    EXPECT_THROW(BatchReport::from_runs_csv(header + row + "\n"),
                 std::invalid_argument)
        << row;
  }
  EXPECT_THROW(BatchReport::from_runs_csv(
                   "scenario,seed,verdict,agreement,validity,terminated,"
                   "latency,messages,delivered,bytes,value,evaluations,"
                   "eval_hits,signatures,sig_hits,digest\n"),
               std::invalid_argument);

  // JSON: only whitespace may follow the document, a sign on an unsigned
  // field is malformed, and engine-counter keys are unknown keys.
  const std::string json =
      BatchReport({record("a", 1, "SOLVED", 10, 5)}).to_json();
  ASSERT_NO_THROW((void)BatchReport::from_json(json + " \n"));
  for (const std::string& bad :
       {json + "x", json + json, std::string("{\"runs\":[{\"seed\":-1}]}"),
        std::string("{\"runs\":[{\"evaluations\":1}]}")}) {
    EXPECT_THROW(BatchReport::from_json(bad), std::invalid_argument) << bad;
  }
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
  for (std::size_t i = 0; i < 100; ++i) {
    const RunRecord& p = pooled.runs()[i];
    // Byte-identical records, including the SHA-256 digest of the full
    // RunReport — the bit-replay guarantee, context recycling included.
    EXPECT_EQ(p, serial.runs()[i]) << p.scenario << "/" << p.seed;
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

  // Under recycled contexts the hit/miss splits and the search enumeration
  // volume move with each worker's warm caches, but the
  // behavior-fact totals — work *requested*, verification total, event
  // count — are functions of the runs alone and must survive any placement.
  for (const std::size_t threads : {1, 4}) {
    BatchRunner::Options options;
    options.threads = threads;
    const std::vector<RunReport> recycled =
        BatchRunner(options).run_reports(sweep.expand());
    const obs::MetricsSnapshot recycled_total = merge_run_metrics(recycled);
    EXPECT_EQ(recycled_total.counter("eval.requested"),
              cold_total.counter("eval.requested"))
        << threads;
    EXPECT_EQ(recycled_total.counter("sig.verified") +
                  recycled_total.counter("sig.cached"),
              cold_total.counter("sig.verified") +
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

TEST(BatchRunnerTest, VerifyDeterminismOptionPasses) {
  Sweep sweep;
  sweep.add(ScenarioRegistry::paper(), "fig1b/silent").seeds(1, 4);
  BatchRunner::Options options;
  options.threads = 2;
  options.verify_determinism = true;
  EXPECT_NO_THROW((void)BatchRunner(options).run(sweep));
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
