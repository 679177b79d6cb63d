// The run engine's recycling contract: a RunContext that has executed any
// number of prior runs is observationally identical to a fresh simulator.
//
// This is the state-leak tripwire for the whole recycled engine — simulator
// reset, the retained signature and evaluation memos, and the bucketed
// event queue all sit under it. The property runs every explored/* corpus
// scenario and the dyn/* fault-timeline family (the paths that exercise
// crash/recover, partitions, late joins, fake PDs, and the Byzantine
// behaviors) twice through ONE context, interleaved, and demands
// byte-identical RunReport digests against fresh runs. CI also runs it
// under ASan/UBSan, where state that outlives a reset surfaces first.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cup/run_context.hpp"
#include "cup/scenario_builder.hpp"
#include "cup/scenario_registry.hpp"

namespace bftcup {
namespace {

using cup::RunContext;
using cup::RunReport;
using cup::Scenario;
using cup::ScenarioRegistry;

std::vector<std::string> recycling_corpus() {
  std::vector<std::string> names;
  for (const auto& [name, entry] : ScenarioRegistry::paper().entries()) {
    (void)entry;
    if (name.starts_with("explored/") || name.starts_with("dyn/")) {
      names.push_back(name);
    }
  }
  return names;
}

Scenario scenario_for(const std::string& name, std::uint64_t seed) {
  const auto* entry = ScenarioRegistry::paper().find(name);
  EXPECT_NE(entry, nullptr) << name;
  return entry->make(seed).seed(seed).build();
}

TEST(RunContextTest, RecycledRunsMatchFreshRunsByteForByte) {
  const auto corpus = recycling_corpus();
  ASSERT_GE(corpus.size(), 10u);  // explored/* (8) + dyn/* (6)

  RunContext context;
  // Two interleaved passes through one context: pass 2 replays every
  // scenario on a context warmed by *all* of them, so cross-scenario
  // leakage (not just same-scenario) would be caught.
  std::vector<std::string> first_pass;
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t index = 0;
    for (const std::string& name : corpus) {
      const std::uint64_t seed = 1 + (index++ % 2) * 6;  // seeds 1 and 7
      const Scenario scenario = scenario_for(name, seed);
      const std::string fresh = cup::run_scenario(scenario).digest();
      const std::string recycled = context.run(scenario).digest();
      EXPECT_EQ(recycled, fresh) << name << " seed " << seed
                                 << " pass " << pass;
      if (pass == 0) {
        first_pass.push_back(recycled);
      } else {
        EXPECT_EQ(recycled, first_pass[index - 1]) << name << " pass replay";
      }
    }
  }
  EXPECT_EQ(context.runs_executed(), corpus.size() * 2);
}

TEST(RunContextTest, KnobsAreDigestNeutral) {
  // One context, the cache knobs flipped run by run: memos detached for one
  // run and re-attached for the next (their entries retained throughout)
  // still leave every digest equal to the fresh reference.
  const auto* entry = ScenarioRegistry::paper().find("dyn/crash-mid-discovery");
  ASSERT_NE(entry, nullptr);
  const std::string reference =
      cup::run_scenario(entry->make(5).seed(5).build()).digest();
  RunContext context;
  for (const bool caching : {true, false, true}) {
    const RunReport report =
        context.run(entry->make(5).seed(5).caching(caching).build());
    EXPECT_EQ(report.digest(), reference) << "caching=" << caching;
    if (!caching) {
      EXPECT_EQ(report.signatures_cached, 0u);
      EXPECT_EQ(report.eval_cache_hits, 0u);
    }
  }
}

TEST(RunContextTest, RunEngineCountersDescribeTheContext) {
  const Scenario scenario = scenario_for("explored/agreement-14960b90", 1);

  RunContext context;
  const RunReport first = context.run(scenario);
  EXPECT_EQ(first.metrics.gauge("engine.contexts_recycled"), 0u);
  ASSERT_GT(first.evaluations, 0u);

  // Identical replays on the recycled context: the work *requested* is a
  // pure function of the run (evaluations constant), and every view the
  // replay evaluates was stored by the first run, so the retained memo —
  // consulted on every evaluation — serves all of them from the first
  // replay on.
  for (int replay = 1; replay <= 3; ++replay) {
    const RunReport r = context.run(scenario);
    EXPECT_EQ(r.metrics.gauge("engine.contexts_recycled"),
              static_cast<std::uint64_t>(replay));
    EXPECT_EQ(r.evaluations, first.evaluations) << "replay " << replay;
    EXPECT_EQ(r.eval_cache_hits, r.evaluations) << "replay " << replay;
    EXPECT_EQ(r.digest(), first.digest()) << "replay " << replay;
  }
}

TEST(RunContextTest, MetricsSnapshotHoldsOnlyThisRun) {
  // A hostile-wire run interns wire.* counters; a clean run recycled after
  // it on the same context must report exactly the counters a fresh run of
  // the clean scenario reports — no zero-valued rows left over. The storm
  // never decides, so its horizon is cut to keep the test fast (and cheap
  // under the sanitizers); every mutation kind still fires.
  const auto* storm_entry = ScenarioRegistry::paper().find("wire/fig1b-storm");
  ASSERT_NE(storm_entry, nullptr);
  RunContext context;
  const RunReport storm =
      context.run(storm_entry->make(1).seed(1).horizon(20'000).build());
  ASSERT_GT(storm.metrics.counter("wire.mutated.garbage"), 0u);
  const Scenario clean = scenario_for("fig1b/silent", 1);
  const RunReport recycled = context.run(clean);
  ASSERT_EQ(recycled.metrics.gauge("engine.contexts_recycled"), 1u);
  const auto counter_names = [](const RunReport& report) {
    std::vector<std::string> names;
    for (const auto& [name, value] : report.metrics.counters) {
      names.push_back(name);
    }
    return names;
  };
  EXPECT_EQ(counter_names(recycled), counter_names(cup::run_scenario(clean)));
}

}  // namespace
}  // namespace bftcup
