// The observation-only property: the always-on metrics registry and
// Scenario::trace_capacity must be invisible in results. Every
// explored-corpus and dynamic registry scenario is replayed with the span
// flight recorder installed, and the RunReport digest must be
// byte-identical to the untraced run. The corpus covers adversarial
// topologies (big-SCC shapes included, so the certification span and
// fallback counter fire) and fault-timeline churn.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cup/scenario_registry.hpp"

namespace bftcup {
namespace {

using cup::RunReport;
using cup::ScenarioRegistry;

std::vector<std::string> corpus() {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  std::vector<std::string> names = registry.names_with_tag("explored");
  for (std::string& name : registry.names_with_tag("dynamic")) {
    names.push_back(std::move(name));
  }
  return names;
}

TEST(ObsDeterminismTest, CorpusDigestsAreObsInvariant) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  const std::vector<std::string> names = corpus();
  ASSERT_FALSE(names.empty());

  for (const std::string& name : names) {
    // Baseline: no tracer (metrics are always collected).
    const RunReport bare = cup::run_scenario(
        registry.builder(name).seed(1).tracing(false).build());
    EXPECT_EQ(bare.spans, nullptr) << name;

    const RunReport observed = cup::run_scenario(
        registry.builder(name).seed(1).tracing(true).build());
    EXPECT_EQ(observed.digest(), bare.digest()) << name << " with obs on";
    EXPECT_EQ(observed.verdict(), bare.verdict()) << name;
    ASSERT_NE(observed.spans, nullptr) << name;
    EXPECT_GT(observed.spans->started, 0u) << name;
    EXPECT_FALSE(observed.metrics.empty()) << name;

    // The RunReport counter fields are mirrors of the snapshot's standard
    // names — they can never drift from it.
    EXPECT_EQ(observed.evaluations, observed.metrics.counter("eval.requested"))
        << name;
    EXPECT_EQ(observed.eval_cache_hits,
              observed.metrics.counter("eval.cache_hits"))
        << name;
    EXPECT_EQ(observed.signatures_verified,
              observed.metrics.counter("sig.verified"))
        << name;
    EXPECT_EQ(observed.signatures_cached,
              observed.metrics.counter("sig.cached"))
        << name;
    EXPECT_EQ(observed.big_scc_fallbacks,
              observed.metrics.counter("engine.big_scc_fallbacks"))
        << name;
    EXPECT_EQ(observed.arena_bytes_peak,
              observed.metrics.gauge("engine.arena_bytes_peak"))
        << name;
  }
}

TEST(ObsDeterminismTest, TinyRingDigestsMatchUnboundedTrace) {
  // The flight recorder's wrap-around path must be as invisible as the
  // recorder itself: a capacity that drops most records cannot change the
  // run.
  const std::vector<std::string> names = corpus();
  ASSERT_FALSE(names.empty());
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  const std::string& name = names.front();

  const RunReport roomy = cup::run_scenario(
      registry.builder(name).seed(1).tracing(true).build());
  const RunReport tiny = cup::run_scenario(
      registry.builder(name).seed(1).trace_capacity(8).build());
  EXPECT_EQ(tiny.digest(), roomy.digest());
  ASSERT_NE(tiny.spans, nullptr);
  EXPECT_LE(tiny.spans->records.size(), 8u);
  EXPECT_EQ(tiny.spans->started, roomy.spans->started);
  EXPECT_GT(tiny.spans->dropped, 0u);
}

}  // namespace
}  // namespace bftcup
