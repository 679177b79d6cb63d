// Ablation of the Core rule's knowledge-closure guard against the
// bridge-hiding fake-PD attack (described in cupft_integration_test's
// Fig4aBridgeHidingFakePdAttackSplits).
#include <gtest/gtest.h>

#include "cup/scenario_builder.hpp"

namespace bftcup::cup {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

ScenarioBuilder attack_builder(bool closure_guard) {
  // Fig. 4a with Byzantine 5 hiding the 5->4 bridge behind a fake PD.
  return ScenarioBuilder(graph::figures::fig4a())
      .mode(Mode::kCupft)
      .byz(ByzBehavior::kFakePd)
      .fake_pd(p(5), {p(6), p(7), p(8)})
      .closure_guard(closure_guard)
      .horizon(300'000);
}

TEST(ClosureGuardTest, WithoutGuardTheAttackBreaksTheRun) {
  const auto report = attack_builder(false).run();
  EXPECT_NE(report.verdict(), "SOLVED");
}

TEST(ClosureGuardTest, GuardPreservesAgreementUnderAttack) {
  // With the guard, a B-side process cannot adopt the phantom {5,6,7,8}
  // while its own PD's target 3 (or transitively learned A-side processes)
  // are unheard-from; by the time they answered, the tie with {1,2,3,4} is
  // visible. Safety holds; multiple seeds to derisk scheduling luck.
  for (std::uint64_t seed : {1, 2, 3, 5, 8}) {
    const auto report = attack_builder(true).seed(seed).run();
    EXPECT_TRUE(report.agreement) << "seed=" << seed;
    // No two different cores may both decide.
    std::optional<Value> value;
    for (const auto& [who, d] : report.decisions) {
      if (value) {
        EXPECT_EQ(*value, d.value);
      }
      value = d.value;
    }
  }
}

TEST(ClosureGuardTest, GuardCostsLivenessWithSilentOutsideByzantine) {
  // The flip side: fig. 4a with Byzantine 5 *silent*. The A side never hears
  // PD_5 and 5 is outside the core candidate {1,2,3,4} -> under the guard
  // nobody ever adopts a core. This is the negative result: Algorithm 4
  // cannot be repaired by a local rule that both defeats the attack and
  // stays live.
  const auto report = ScenarioBuilder(graph::figures::fig4a())
                          .mode(Mode::kCupft)
                          .byz(ByzBehavior::kSilent)
                          .closure_guard()
                          .horizon(150'000)
                          .run();
  EXPECT_EQ(report.verdict(), "NO-TERMINATION");
  EXPECT_TRUE(report.decisions.empty());
}

TEST(ClosureGuardTest, GuardIsHarmlessWhenEveryoneSpeaks) {
  // All-correct fig. 4a (threshold exists, nobody faulty): the guard delays
  // adoption only until every PD arrived; consensus still solves.
  const auto report = ScenarioBuilder(graph::figures::fig4a().graph)
                          .mode(Mode::kCupft)
                          .closure_guard()
                          .run();
  EXPECT_EQ(report.verdict(), "SOLVED");
}

}  // namespace
}  // namespace bftcup::cup
