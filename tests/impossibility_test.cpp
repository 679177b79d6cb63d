// Executable witnesses for Section IV: Theorem 7 and Observation 1.
#include <gtest/gtest.h>

#include "cup/scenario_builder.hpp"
#include "graph/osr.hpp"

namespace bftcup::cup {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

ScenarioBuilder naive_builder(graph::Digraph g, IdSet faulty) {
  return ScenarioBuilder(std::move(g))
      .faulty(std::move(faulty))
      .mode(Mode::kNaive)
      .horizon(1'000'000)
      .gst(0)
      .delta(10);
}

TEST(ImpossibilityTest, SystemADecidesV) {
  // Case (a) of Theorem 7's proof: system A with 4 silent; the naive
  // protocol terminates deciding the common value v.
  const auto inst = graph::figures::fig2a();
  const auto report = naive_builder(inst.graph, inst.faulty)
                          .propose_range(1, 4, 111)  // v
                          .run();
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_EQ(report.common_value, 111U);
}

TEST(ImpossibilityTest, SystemBDecidesU) {
  const auto inst = graph::figures::fig2b();
  const auto report = naive_builder(inst.graph, inst.faulty)
                          .propose_range(5, 8, 222)  // u
                          .run();
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_EQ(report.common_value, 222U);
}

ScenarioBuilder system_ab(std::uint64_t seed) {
  const auto inst = graph::figures::fig2c();
  // Initial values: members of A propose v, members of B propose u.
  // GST far out; cross-group traffic (through the 4 <-> 5 bridge) crawls —
  // exactly the schedule from the proof ("received after max{tA+ΔA, ...}").
  return naive_builder(inst.graph, /*faulty=*/{})
      .propose_range(1, 4, 111)
      .propose_range(5, 8, 222)
      .gst(800'000)
      .seed(seed)
      .delay_policy([] {
        return std::make_unique<sim::GroupStretchPolicy>(
            std::make_unique<sim::RandomDelayPolicy>(),
            IdSet{p(1), p(2), p(3), p(4)}, IdSet{p(5), p(6), p(7), p(8)},
            /*release_at=*/700'000);
      });
}

TEST(ImpossibilityTest, SystemAbViolatesAgreementUnderNaiveProtocol) {
  // Case (c): all eight processes are correct, but the two halves cannot
  // distinguish AB from their solo systems before the bridge traffic lands,
  // so they decide v and u respectively — Agreement is violated.
  const auto report = system_ab(3).run();
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_FALSE(report.agreement);
  EXPECT_EQ(report.verdict(), "AGREEMENT-VIOLATED");

  // The split is exactly along the two declared sinks of Observation 1.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(report.decisions.at(p(id)).value, 111U);
    EXPECT_EQ(report.memberships.at(p(id)),
              (IdSet{p(1), p(2), p(3), p(4)}));
  }
  for (std::uint64_t id = 5; id <= 8; ++id) {
    EXPECT_EQ(report.decisions.at(p(id)).value, 222U);
    EXPECT_EQ(report.memberships.at(p(id)),
              (IdSet{p(5), p(6), p(7), p(8)}));
  }
}

TEST(ImpossibilityTest, ViolationIsSchedulerDependentNotLucky) {
  // Several seeds, same violation: this is structural, not a fluke.
  for (std::uint64_t seed : {1, 2, 5, 8}) {
    const auto report = system_ab(seed).run();
    EXPECT_FALSE(report.agreement) << "seed=" << seed;
  }
}

TEST(ImpossibilityTest, KnownFProtocolOnAbDoesNotSplit) {
  // The same graph and schedule under the *known-f* protocol: each half's
  // candidate requires g = f = 1 and both halves do satisfy it (Obs. 1), so
  // BFT-CUP would split too — this is why Theorem 7 needs G_di ∈ G_di with
  // known f to be *assumed*, and why fig2c (which fails the requirements:
  // it is only 1-OSR) is outside the BFT-CUP family. We assert the checker
  // rejects it rather than claiming a runtime guarantee.
  const auto inst = graph::figures::fig2c();
  EXPECT_FALSE(graph::check_bft_cup_requirements(inst.graph, {}, 1).satisfied);
}

TEST(ImpossibilityTest, CoreRuleStaysSilentOnAb) {
  // The fixed protocol pays with liveness on an insufficient graph, never
  // with safety.
  const auto report =
      system_ab(7).mode(Mode::kCupft).horizon(200'000).run();
  EXPECT_TRUE(report.decisions.empty());
  EXPECT_TRUE(report.agreement);
}

TEST(ImpossibilityTest, NaiveOnFig3aCanAdoptTheFalseSink) {
  // Observation 1's second shape: non-sink members {1,2,3,4,6} declare
  // themselves a sink (with the Byzantine 1 playing along) while the true
  // sink {5,7,8} is slowed. The naive run must terminate with *some* split
  // membership; crucially it never matches the known-f run's {5,7,8}.
  const auto inst = graph::figures::fig3a();
  const auto report =
      naive_builder(inst.graph, /*faulty=*/{})  // 1 behaves
          .horizon(300'000)
          .gst(800'000)
          .delay_policy([] {
            return std::make_unique<sim::SlowSenderPolicy>(
                std::make_unique<sim::RandomDelayPolicy>(),
                IdSet{p(5), p(7), p(8)}, /*release_at=*/700'000);
          })
          .run();
  ASSERT_FALSE(report.memberships.empty());
  bool false_sink_adopted = false;
  for (const auto& [who, members] : report.memberships) {
    if (members == IdSet{p(1), p(2), p(3), p(4), p(6), p(5), p(7)}) {
      false_sink_adopted = true;
    }
  }
  EXPECT_TRUE(false_sink_adopted);
}

}  // namespace
}  // namespace bftcup::cup
