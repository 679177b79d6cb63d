// End-to-end runs of the authenticated BFT-CUP protocol (Section III).
#include <gtest/gtest.h>

#include "cup/scenario_builder.hpp"

namespace bftcup::cup {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

ScenarioBuilder base_builder(graph::Digraph g, std::size_t f, IdSet faulty) {
  return ScenarioBuilder(std::move(g))
      .f(f)
      .faulty(std::move(faulty))
      .mode(Mode::kAuth)
      .horizon(2'000'000)
      .gst(0)
      .delta(10);
}

ScenarioBuilder base_builder(const graph::figures::Instance& inst) {
  return base_builder(inst.graph, inst.f, inst.faulty);
}

TEST(AuthCupIntegrationTest, Fig1bSilentByzantineSolves) {
  const auto report = base_builder(graph::figures::fig1b()).run();
  EXPECT_EQ(report.verdict(), "SOLVED");
  EXPECT_TRUE(report.validity);
  // Every correct process settled on the sink {1,2,3,4} (Theorem 4: all and
  // only the sink members of G_di).
  for (const auto& [who, members] : report.memberships) {
    EXPECT_EQ(members, (IdSet{p(1), p(2), p(3), p(4)})) << to_string(who);
  }
}

TEST(AuthCupIntegrationTest, Fig1bFakePdByzantineSolves) {
  const auto report =
      base_builder(graph::figures::fig1b())
          .byz(ByzBehavior::kFakePd)
          .fake_pd(p(4), {p(1), p(2), p(3)})  // the paper's walkthrough
          .run();
  EXPECT_EQ(report.verdict(), "SOLVED");
}

TEST(AuthCupIntegrationTest, Fig1bWrongValueByzantineSolves) {
  const auto report = base_builder(graph::figures::fig1b())
                          .byz(ByzBehavior::kWrongValue)
                          .run();
  EXPECT_EQ(report.verdict(), "SOLVED");
  // Non-sink members needed ceil((|S|+1)/2) identical answers, so the bogus
  // 666 can never win.
  for (const auto& [who, d] : report.decisions) {
    EXPECT_NE(d.value, 666U);
  }
}

TEST(AuthCupIntegrationTest, Fig1bEquivocatingByzantine) {
  const auto report = base_builder(graph::figures::fig1b())
                          .byz(ByzBehavior::kEquivocate)
                          .run();
  EXPECT_TRUE(report.all_correct_decided);
  EXPECT_TRUE(report.agreement);
}

TEST(AuthCupIntegrationTest, Fig1aSplitsExactlyAsThePaperArgues) {
  // Fig. 1a misses the BFT-CUP requirements (removing 4 disconnects
  // G_safe). With 4 silent, each cluster finds a *local* set satisfying the
  // predicate and decides independently — the executable form of the
  // caption's "solving consensus in this system is impossible".
  const auto report =
      base_builder(graph::figures::fig1a()).horizon(300'000).run();
  EXPECT_FALSE(report.agreement);
  EXPECT_EQ(report.verdict(), "AGREEMENT-VIOLATED");
  // The split is along the two clusters.
  ASSERT_TRUE(report.decisions.contains(p(1)));
  ASSERT_TRUE(report.decisions.contains(p(5)));
  EXPECT_NE(report.decisions.at(p(1)).value,
            report.decisions.at(p(5)).value);
}

TEST(AuthCupIntegrationTest, Fig3aTrueSinkDecidesAndNobodyContradictsIt) {
  // FINDING: on fig3a even the *known-f* predicate admits a second
  // satisfying family at g = 1 — {2,3,4,6} absorbing {1,5,7} — a gap
  // between Theorem 4's statement and the predicate as exemplified (the
  // paper's own Fig. 1b walkthrough forces the S2-absorbing reading of P3,
  // under which the non-sink exclusion argument no longer goes through).
  // Executable consequences, which we pin down:
  //   * the true sink {5,7,8} always finds itself and decides;
  //   * processes adopting the false family can stall (their quorum of 5
  //     exceeds its 4 live participants) but can never decide a
  //     conflicting value — Agreement over deciders holds.
  const auto report =
      base_builder(graph::figures::fig3a()).horizon(300'000).run();
  EXPECT_TRUE(report.agreement);
  for (std::uint64_t id : {5, 7, 8}) {
    EXPECT_TRUE(report.decisions.contains(p(id))) << "p" << id;
  }
  EXPECT_EQ(report.memberships.at(p(5)), (IdSet{p(5), p(7), p(8)}));
}

TEST(AuthCupIntegrationTest, Fig3bSolvesWithF2) {
  const auto report = base_builder(graph::figures::fig3b()).run();
  EXPECT_EQ(report.verdict(), "SOLVED");
}

TEST(AuthCupIntegrationTest, LateGstStillSolves) {
  const auto report = base_builder(graph::figures::fig1b())
                          .gst(20'000)  // long chaotic prefix
                          .seed(5)
                          .run();
  EXPECT_EQ(report.verdict(), "SOLVED");
  EXPECT_GT(report.messages_sent, 0U);
}

class LateGstSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LateGstSweep, ChaoticPrefixNeverSplitsFig1b) {
  // Regression for a PBFT safety bug: pre-GST reordering let replicas
  // commit in a view they had already left, assembling commit quorums for
  // two values. Agreement must hold under every schedule.
  const auto report = base_builder(graph::figures::fig1b())
                          .gst(2'000)
                          .seed(GetParam())
                          .run();
  EXPECT_TRUE(report.agreement) << "seed=" << GetParam();
  EXPECT_EQ(report.verdict(), "SOLVED") << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LateGstSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

struct SweepParams {
  std::uint64_t seed;
  std::size_t f;
  ByzBehavior byz;
};

class AuthCupSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(AuthCupSweep, RandomGraphsSolveConsensus) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  graph::generators::BftCupParams gp;
  gp.f = param.f;
  gp.sink_size = 2 * param.f + 1 + param.f;
  gp.non_sink = 3;
  gp.byzantine_in_sink = param.f;
  const auto sys = graph::generators::random_bft_cup(gp, rng);

  const auto report = base_builder(sys.graph, sys.f, sys.faulty)
                          .byz(param.byz)
                          .seed(param.seed * 31 + 7)
                          .run();
  EXPECT_EQ(report.verdict(), "SOLVED")
      << "seed=" << param.seed << " f=" << param.f;
  EXPECT_TRUE(report.validity);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AuthCupSweep,
    ::testing::Values(SweepParams{1, 1, ByzBehavior::kSilent},
                      SweepParams{2, 1, ByzBehavior::kSilent},
                      SweepParams{3, 1, ByzBehavior::kFakePd},
                      SweepParams{4, 1, ByzBehavior::kWrongValue},
                      SweepParams{5, 2, ByzBehavior::kSilent},
                      SweepParams{6, 2, ByzBehavior::kFakePd},
                      SweepParams{7, 2, ByzBehavior::kWrongValue},
                      SweepParams{8, 1, ByzBehavior::kEquivocate}));

TEST(AuthCupIntegrationTest, DecisionValueWasProposedBySomeCorrectProcess) {
  const auto report = base_builder(graph::figures::fig1b()).run();
  ASSERT_TRUE(report.common_value.has_value());
  bool from_correct = false;
  for (ProcessId id : report.correct) {
    if (*report.common_value == default_proposal(id)) from_correct = true;
  }
  EXPECT_TRUE(from_correct);  // silent Byzantine proposed nothing
}

TEST(AuthCupIntegrationTest, MessageAndByteMetricsPopulated) {
  const auto report = base_builder(graph::figures::fig1b()).run();
  EXPECT_GT(report.messages_sent, 0U);
  EXPECT_GT(report.messages_delivered, 0U);
  EXPECT_GT(report.bytes_sent, report.messages_sent);  // > 1 byte each
  ASSERT_TRUE(report.completion_time.has_value());
  EXPECT_GT(*report.completion_time, 0);
}

}  // namespace
}  // namespace bftcup::cup
