// End-to-end runs of the BFT-CUPFT protocol (Section VI): nobody knows f.
#include <gtest/gtest.h>

#include "cup/scenario_builder.hpp"

namespace bftcup::cup {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

ScenarioBuilder cupft_builder(graph::Digraph g, IdSet faulty) {
  return ScenarioBuilder(std::move(g))
      .faulty(std::move(faulty))
      .mode(Mode::kCupft)
      .horizon(2'000'000)
      .gst(0)
      .delta(10);
}

TEST(CupftIntegrationTest, Fig4aSolvesWithCore1234) {
  const auto inst = graph::figures::fig4a();
  const auto report = cupft_builder(inst.graph, inst.faulty).run();
  EXPECT_EQ(report.verdict(), "SOLVED");
  for (const auto& [who, members] : report.memberships) {
    EXPECT_EQ(members, (IdSet{p(1), p(2), p(3), p(4)})) << to_string(who);
  }
}

TEST(CupftIntegrationTest, Fig4bSolvesWithCore8to12) {
  const auto inst = graph::figures::fig4b();
  const auto report = cupft_builder(inst.graph, inst.faulty).run();
  EXPECT_EQ(report.verdict(), "SOLVED");
  for (const auto& [who, members] : report.memberships) {
    EXPECT_EQ(members, (IdSet{p(8), p(9), p(10), p(11), p(12)}))
        << to_string(who);
  }
}

TEST(CupftIntegrationTest, Fig4aBenignFakePdStillSolves) {
  // Byzantine 5 advertises a *different* fake PD that keeps pointing into
  // the A side: the bridge evidence survives and the core is found.
  const auto inst = graph::figures::fig4a();
  const auto report = cupft_builder(inst.graph, inst.faulty)
                          .byz(ByzBehavior::kFakePd)
                          .fake_pd(p(5), {p(4), p(6)})
                          .run();
  EXPECT_EQ(report.verdict(), "SOLVED");
}

TEST(CupftIntegrationTest, Fig4aBridgeHidingFakePdAttackSplits) {
  // FINDING: fig4a's graph engineering counts 5 -> 4 as an escape that
  // stops {5,6,7,8} from self-declaring.
  // A Byzantine 5 that *hides* that edge (fake PD {6,7,8}) completes a
  // phantom K4 on the B side: {5,6,7,8} transiently passes the predicate
  // with k = 2 before the A-side knowledge arrives, and the B side decides
  // separately. Algorithm 4 as specified has no defense against this;
  // the run is an executable witness of the gap.
  const auto inst = graph::figures::fig4a();
  const auto report = cupft_builder(inst.graph, inst.faulty)
                          .byz(ByzBehavior::kFakePd)
                          .fake_pd(p(5), {p(6), p(7), p(8)})  // hides 5 -> 4
                          .run();
  EXPECT_NE(report.verdict(), "SOLVED");
}

TEST(CupftIntegrationTest, Fig4bWrongValueByzantine) {
  const auto inst = graph::figures::fig4b();
  const auto report = cupft_builder(inst.graph, inst.faulty)
                          .byz(ByzBehavior::kWrongValue)
                          .run();
  EXPECT_EQ(report.verdict(), "SOLVED");
  for (const auto& [who, d] : report.decisions) {
    EXPECT_NE(d.value, 666U);
  }
}

TEST(CupftIntegrationTest, Fig3bSolvesWithoutKnowingF) {
  // fig3b satisfies BFT-CUPFT; the Core rule must find the K5 core (+ absorbed
  // silent Byzantine {5,7}) with no f provided.
  const auto inst = graph::figures::fig3b();
  const auto report = cupft_builder(inst.graph, inst.faulty).run();
  EXPECT_EQ(report.verdict(), "SOLVED");
  for (const auto& [who, members] : report.memberships) {
    EXPECT_EQ(members,
              (IdSet{p(1), p(2), p(3), p(4), p(5), p(6), p(7)}))
        << to_string(who);
  }
}

TEST(CupftIntegrationTest, Fig2cSplitsWhenSchedulingIsFast) {
  // Theorem 7 bites the Core algorithm too: fig2c violates C1, and with a
  // fast schedule each half sees its own sink as a *strict* local maximum
  // before learning of the other — so it terminates and decides. On an
  // insufficient graph no unknown-f protocol can do better (that is the
  // impossibility); the model's answer is the checker rejecting the graph.
  const auto inst = graph::figures::fig2c();
  const auto report =
      cupft_builder(inst.graph, inst.faulty).horizon(300'000).run();
  EXPECT_FALSE(report.agreement);
}

TEST(CupftIntegrationTest, Fig3aTrueSinkDecidesOthersStarve) {
  // BFT-CUP-sufficient but BFT-CUPFT-insufficient. Deterministic split of
  // knowledge: {5,7,8} never learn the K5 side exists (their PDs point only
  // at each other), so they decide among themselves; {2,3,4,6} either see
  // the tie (k = 2 vs k = 2) and wait forever or adopt the over-absorbed
  // family whose quorum cannot assemble. Either way they never decide and
  // never contradict {5,7,8}.
  const auto inst = graph::figures::fig3a();
  const auto report =
      cupft_builder(inst.graph, inst.faulty).horizon(300'000).run();
  EXPECT_TRUE(report.agreement);
  for (std::uint64_t id : {5, 7, 8}) {
    EXPECT_TRUE(report.decisions.contains(p(id)));
  }
  for (std::uint64_t id : {2, 3, 4, 6}) {
    EXPECT_FALSE(report.decisions.contains(p(id)));
  }
}

TEST(CupftIntegrationTest, LateGstStillSolves) {
  const auto inst = graph::figures::fig4a();
  const auto report =
      cupft_builder(inst.graph, inst.faulty).gst(20'000).seed(11).run();
  EXPECT_EQ(report.verdict(), "SOLVED");
}

class CupftSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CupftSweep, RandomCupftGraphsSolve) {
  Rng rng(GetParam());
  graph::generators::CupftParams gp;
  gp.f = 1;
  gp.core_size = 5;
  gp.periphery = 4;
  gp.byzantine_in_core = 1;
  const auto sys = graph::generators::random_cupft(gp, rng);

  const auto report = cupft_builder(sys.graph, sys.faulty)
                          .seed(GetParam() * 13 + 1)
                          .run();
  EXPECT_EQ(report.verdict(), "SOLVED") << "seed=" << GetParam();
  EXPECT_TRUE(report.validity);
  // Every correct process converged on the full core (incl. the Byzantine
  // member, absorbed per S2).
  for (const auto& [who, members] : report.memberships) {
    EXPECT_EQ(members, sys.sink) << to_string(who);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CupftSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CupftIntegrationTest, AuthAndCupftAgreeOnSameGraph) {
  // The "price of not knowing f" must be latency/messages, not outcomes.
  const auto inst = graph::figures::fig4a();
  const auto ra = cupft_builder(inst.graph, inst.faulty)
                      .mode(Mode::kAuth)
                      .f(inst.f)
                      .run();
  const auto rc = cupft_builder(inst.graph, inst.faulty).run();
  EXPECT_EQ(ra.verdict(), "SOLVED");
  EXPECT_EQ(rc.verdict(), "SOLVED");
}

}  // namespace
}  // namespace bftcup::cup
