#include <gtest/gtest.h>

#include <algorithm>

#include "cup/scenario_registry.hpp"

namespace bftcup::cup {
namespace {

TEST(ScenarioRegistryTest, PaperCatalogCoversTheAnchors) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  // Every Table I cell.
  EXPECT_EQ(registry.names_with_tag("table1").size(), 9u);
  // Every figure family is represented.
  for (const char* name :
       {"fig1a/silent", "fig1b/silent", "fig1b/fake-pd", "fig1b/wrong-value",
        "fig2/system-a-naive", "fig2/system-ab-naive", "fig2/system-ab-cupft",
        "fig3a/auth", "fig3a/cupft", "fig3b/auth", "fig3b/cupft",
        "fig4a/cupft-silent", "fig4b/cupft-fake-pd",
        "fig4a/bridge-hiding-attack", "fig4a/bridge-hiding-guarded",
        "quickstart/fig1b-auth", "adhoc/f1", "blockchain/committee",
        "price-of-f/core5-peri3/auth"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

TEST(ScenarioRegistryTest, NamesAreSortedAndSizedConsistently) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  const auto names = registry.names();
  EXPECT_EQ(names.size(), registry.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ScenarioRegistryTest, LookupFailuresAreExplicit) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  EXPECT_EQ(registry.find("no-such-scenario"), nullptr);
  EXPECT_FALSE(registry.contains("no-such-scenario"));
  EXPECT_THROW(registry.builder("no-such-scenario"), ScenarioError);
  EXPECT_TRUE(registry.names_with_tag("no-such-tag").empty());
}

TEST(ScenarioRegistryTest, FactoriesRespectTheSeed) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  for (const char* name :
       {"fig1b/silent", "table1/sync/known-n-known-f", "adhoc/f1"}) {
    EXPECT_EQ(registry.make(name, 31).sim.seed, 31u) << name;
  }
}

TEST(ScenarioRegistryTest, EveryEntryBuildsAValidScenario) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  for (const auto& name : registry.names()) {
    EXPECT_NO_THROW((void)registry.make(name, 1)) << name;
  }
}

TEST(ScenarioRegistryTest, EntriesCarryDescriptionsAndTags) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  for (const auto& [name, entry] : registry.entries()) {
    EXPECT_FALSE(entry.description.empty()) << name;
    EXPECT_FALSE(entry.tags.empty()) << name;
  }
}

TEST(ScenarioRegistryTest, DuplicateRegistrationRejected) {
  ScenarioRegistry registry;
  ScenarioRegistry::Entry entry{
      "custom/one", "a custom scenario", {"custom"}, [](std::uint64_t seed) {
        return ScenarioRegistry::paper().builder("fig1b/silent", seed);
      }};
  registry.add(entry);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_THROW(registry.add(entry), ScenarioError);
}

TEST(ScenarioRegistryTest, TagEnumerationFindsCupftScenarios) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  const auto cupft = registry.names_with_tag("cupft");
  EXPECT_FALSE(cupft.empty());
  for (const auto& name : cupft) {
    EXPECT_EQ(registry.make(name).mode, Mode::kCupft) << name;
  }
}

TEST(ScenarioRegistryTest, RunExecutesARegisteredScenario) {
  // The sync known-everything Table I cell degenerates to PBFT on K4 and
  // decides almost immediately.
  const RunReport report =
      ScenarioRegistry::paper().run("table1/sync/known-n-known-f", 1);
  EXPECT_EQ(report.verdict(), "SOLVED");
}

TEST(ScenarioRegistryTest, AsyncWitnessesDeliverNoMessage) {
  // The asynchronous Table I row puts GST at kSimTimeMax/2, so every
  // pre-GST delivery is drawn past the horizon: the witnesses do not
  // decide because nothing is delivered, not because two correct processes
  // are starved. A witness that delivers must move this test and the six
  // table1/async digests pinned in determinism_test together.
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  const auto names = registry.names_with_tag("async");
  ASSERT_EQ(names.size(), 3u);
  for (const auto& name : names) {
    for (const std::uint64_t seed : {1u, 7u}) {
      const RunReport report = registry.run(name, seed);
      EXPECT_GT(report.messages_sent, 0u) << name << " seed " << seed;
      EXPECT_EQ(report.messages_delivered, 0u) << name << " seed " << seed;
      EXPECT_EQ(report.verdict(), "NO-TERMINATION")
          << name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace bftcup::cup
