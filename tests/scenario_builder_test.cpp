#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "cup/scenario_builder.hpp"

namespace bftcup::cup {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

graph::Digraph triangle() {
  graph::Digraph g;
  g.add_edge(p(1), p(2));
  g.add_edge(p(2), p(3));
  g.add_edge(p(3), p(1));
  return g;
}

TEST(ScenarioBuilderTest, FigureConstructorSeedsGraphFaultyAndF) {
  const auto instance = graph::figures::fig1b();
  const Scenario s = ScenarioBuilder(instance).build();
  EXPECT_EQ(s.graph, instance.graph);
  EXPECT_EQ(s.faulty, instance.faulty);
  EXPECT_EQ(s.f, instance.f);
  EXPECT_EQ(s.mode, Mode::kAuth);
}

TEST(ScenarioBuilderTest, FluentChainSetsEveryField) {
  const Scenario s = ScenarioBuilder(graph::figures::fig4a())
                         .mode(Mode::kCupft)
                         .byz(ByzBehavior::kEquivocate)
                         .seed(99)
                         .gst(200)
                         .delta(7)
                         .horizon(50'000)
                         .proposal(p(1), 42)
                         .closure_guard()
                         .build();
  EXPECT_EQ(s.mode, Mode::kCupft);
  EXPECT_EQ(s.byz, ByzBehavior::kEquivocate);
  EXPECT_EQ(s.sim.seed, 99u);
  EXPECT_EQ(s.sim.net.gst, 200);
  EXPECT_EQ(s.sim.net.delta, 7);
  EXPECT_EQ(s.sim.horizon, 50'000);
  EXPECT_EQ(s.proposals.at(p(1)), 42u);
  EXPECT_TRUE(s.cupft_known_closure);
}

TEST(ScenarioBuilderTest, RawIdFaultyOverload) {
  const Scenario s = ScenarioBuilder(triangle())
                         .mode(Mode::kNaive)
                         .faulty({1, 3})
                         .build();
  EXPECT_EQ(s.faulty, (IdSet{p(1), p(3)}));
}

TEST(ScenarioBuilderTest, ProposeRangeCoversInclusiveBounds) {
  const Scenario s = ScenarioBuilder(triangle())
                         .mode(Mode::kNaive)
                         .propose_range(1, 3, 777)
                         .build();
  EXPECT_EQ(s.proposals.size(), 3u);
  EXPECT_EQ(s.proposals.at(p(2)), 777u);
}

TEST(ScenarioBuilderTest, ProposeRangeEndsAtTheLargestId) {
  // 2^64 - 1 is a legal id (examples/wide_id_ring.edges); a loop on
  // raw <= last would wrap past it to 0 and never end.
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  graph::Digraph g;
  g.add_edge(p(top - 1), p(top));
  g.add_edge(p(top), p(top - 1));
  const Scenario s =
      ScenarioBuilder(g).f(0).propose_range(top - 1, top, 5).build();
  EXPECT_EQ(s.proposals, (std::map<ProcessId, Value>{{p(top - 1), 5},
                                                     {p(top), 5}}));
  // An empty range sets nothing.
  const Scenario empty =
      ScenarioBuilder(g).f(0).propose_range(top, top - 1, 5).build();
  EXPECT_TRUE(empty.proposals.empty());
}

TEST(ScenarioBuilderTest, EmptyGraphRejected) {
  EXPECT_THROW(ScenarioBuilder().build(), ScenarioError);
}

TEST(ScenarioBuilderTest, FaultyOutsideGraphRejected) {
  EXPECT_THROW(
      ScenarioBuilder(triangle()).mode(Mode::kNaive).faulty({9}).build(),
      ScenarioError);
}

TEST(ScenarioBuilderTest, InconsistentFRejected) {
  // f must leave at least one process: f >= n is nonsense.
  EXPECT_THROW(ScenarioBuilder(triangle()).f(3).build(), ScenarioError);
}

TEST(ScenarioBuilderTest, KnownFPremiseViolationRejected) {
  // 2 faulty > f = 1 in known-f mode breaks the protocol's premise
  // |faulty| <= f; no option lets such a scenario build.
  auto builder = ScenarioBuilder(triangle()).mode(Mode::kAuth).f(1);
  builder.faulty({1, 2});
  EXPECT_THROW(builder.build(), ScenarioError);
}

TEST(ScenarioBuilderTest, ProposalForUnknownVertexRejected) {
  EXPECT_THROW(
      ScenarioBuilder(triangle()).mode(Mode::kNaive).proposal(p(9), 1).build(),
      ScenarioError);
}

TEST(ScenarioBuilderTest, FakePdValidation) {
  // Fake PD for a process that is not faulty.
  EXPECT_THROW(ScenarioBuilder(triangle())
                   .mode(Mode::kNaive)
                   .byz(ByzBehavior::kFakePd)
                   .fake_pd(p(1), {p(2)})
                   .build(),
               ScenarioError);
  // A fake PD may advertise ghost processes: that is a real attack (the
  // ghosts just never answer), so it must NOT be rejected.
  EXPECT_NO_THROW(ScenarioBuilder(triangle())
                      .mode(Mode::kNaive)
                      .faulty({1})
                      .byz(ByzBehavior::kFakePd)
                      .fake_pd(p(1), {p(9)})
                      .build());
  // Fake PD set while the behavior is not kFakePd.
  EXPECT_THROW(ScenarioBuilder(triangle())
                   .mode(Mode::kNaive)
                   .faulty({1})
                   .byz(ByzBehavior::kSilent)
                   .fake_pd(p(1), {p(2)})
                   .build(),
               ScenarioError);
  // The consistent version passes.
  EXPECT_NO_THROW(ScenarioBuilder(triangle())
                      .mode(Mode::kNaive)
                      .faulty({1})
                      .byz(ByzBehavior::kFakePd)
                      .fake_pd(p(1), {p(2)})
                      .build());
}

TEST(ScenarioBuilderTest, NonPositivePeriodsRejected) {
  EXPECT_THROW(ScenarioBuilder(triangle()).horizon(0).build(),
               ScenarioError);
  EXPECT_THROW(ScenarioBuilder(triangle()).delta(0).build(), ScenarioError);
}

TEST(ScenarioBuilderTest, NanProbabilitiesRejected) {
  // Every comparison with NaN is false, so a range check written as
  // "p < 0 || p > 1" would let NaN through and run a wire that never acts.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ScenarioBuilder(triangle()).wire_mutation(nan).build(),
               ScenarioError);
  EXPECT_THROW(ScenarioBuilder(triangle()).loss(nan).build(), ScenarioError);
}

TEST(ScenarioBuilderTest, ErrorsNameTheProblem) {
  try {
    (void)ScenarioBuilder(triangle()).mode(Mode::kNaive).faulty({9}).build();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("p9"), std::string::npos);
  }
}

TEST(ScenarioBuilderTest, RunExecutesTheBuiltScenario) {
  const RunReport report =
      ScenarioBuilder(graph::figures::fig1b()).mode(Mode::kAuth).seed(42).run();
  EXPECT_EQ(report.verdict(), "SOLVED");
}

TEST(ScenarioBuilderTest, BuildIsRepeatable) {
  const ScenarioBuilder builder =
      ScenarioBuilder(graph::figures::fig1b()).mode(Mode::kAuth).seed(7);
  const Scenario a = builder.build();
  const Scenario b = builder.build();
  EXPECT_EQ(a.graph, b.graph);
  EXPECT_EQ(a.sim.seed, b.sim.seed);
}

}  // namespace
}  // namespace bftcup::cup
