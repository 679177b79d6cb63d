// The adversary explorer's three contracts: mutants are always valid,
// shrinking reaches a verified 1-minimal fixpoint, and exploration is a
// pure function of the master seed — identical across repeats and across
// BatchRunner thread counts.
#include <gtest/gtest.h>

#include <set>

#include "explore/explorer.hpp"
#include "graph/figures.hpp"

namespace bftcup {
namespace {

using explore::Classification;
using explore::Explorer;
using explore::ExplorerOptions;
using explore::FindingKind;
using explore::Genome;
using explore::Mutator;
using explore::Shrinker;
using explore::TimelineGene;

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

Genome fig1b_genome() {
  Genome genome;
  const auto inst = graph::figures::fig1b();
  genome.graph = inst.graph;
  genome.faulty = inst.faulty;
  genome.f = inst.f;
  genome.mode = cup::Mode::kAuth;
  genome.horizon = 300'000;
  return genome;
}

/// The known bridge-hiding attack (registered as
/// fig4a/bridge-hiding-attack): Byzantine 5 advertises {6,7,8}.
Genome bridge_hiding_genome() {
  Genome genome;
  const auto inst = graph::figures::fig4a();
  genome.graph = inst.graph;
  genome.faulty = inst.faulty;
  genome.f = inst.f;
  genome.mode = cup::Mode::kCupft;
  genome.byz = cup::ByzBehavior::kFakePd;
  genome.fake_pds[p(5)] = IdSet{p(6), p(7), p(8)};
  genome.horizon = 300'000;
  return genome;
}

TEST(GenomeTest, LineRoundTripsEveryFeature) {
  Genome genome = fig1b_genome();
  genome.byz = cup::ByzBehavior::kFakePd;
  genome.fake_pds[p(4)] = IdSet{p(1), p(901)};  // includes a ghost id
  genome.timeline.push_back(
      {TimelineGene::Kind::kCrash, p(2), {}, {}, {}, 60, 0});
  genome.timeline.push_back(
      {TimelineGene::Kind::kRecover, p(2), {}, {}, {}, 5'000, 0});
  genome.timeline.push_back(
      {TimelineGene::Kind::kDrop, p(1), p(2), {}, {}, 0, 2'000});
  genome.timeline.push_back({TimelineGene::Kind::kPartition,
                             {},
                             {},
                             IdSet{p(1), p(2)},
                             IdSet{p(3), p(5)},
                             10,
                             500});
  genome.timeline.push_back(
      {TimelineGene::Kind::kJoin, p(3), {}, {}, {}, 400, 0});
  genome.gst = 1'234;
  genome.delta = 17;
  genome.seed = 42;
  genome.closure_guard = true;

  const std::string line = genome.to_line();
  const auto parsed = Genome::parse_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_line(), line);
  EXPECT_EQ(*parsed, genome);
  EXPECT_TRUE(parsed->valid());
}

TEST(GenomeTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(Genome::parse_line("").has_value());
  EXPECT_FALSE(Genome::parse_line("nonsense").has_value());
  EXPECT_FALSE(Genome::parse_line("e=1>2|v=1.2").has_value());  // e before v
  EXPECT_FALSE(Genome::parse_line("v=1.2|bogus=3").has_value());
  EXPECT_FALSE(Genome::parse_line("v=1.2|tl=warp:1@5").has_value());

  // A line may only replay the system it states: every edge endpoint is a
  // declared vertex, no key repeats, and no fake-PD owner repeats.
  const std::string base =
      "v=1.2.3.4|e=1>2;2>1;1>3;3>1;2>3;3>2;4>1;4>2|f=1|mode=auth|byz=silent|"
      "faulty=4|fpd=|tl=|gst=0|delta=10|hz=300000|seed=1|cg=0";
  ASSERT_TRUE(Genome::parse_line(base).has_value());
  std::string undeclared = base;
  undeclared.replace(undeclared.find("4>2"), 3, "4>9");
  EXPECT_FALSE(Genome::parse_line(undeclared).has_value());
  EXPECT_FALSE(Genome::parse_line(base + "|f=2").has_value());
  std::string fake_pd = base;
  fake_pd.replace(fake_pd.find("byz=silent"), 10, "byz=fakepd");
  ASSERT_TRUE(Genome::parse_line(fake_pd).has_value());
  fake_pd.replace(fake_pd.find("fpd="), 4, "fpd=4:1.2.3;4:9");
  EXPECT_FALSE(Genome::parse_line(fake_pd).has_value());
}

TEST(GenomeTest, ParseRejectsThirtyTwoBitFieldOverflow) {
  // wm= (rate, kinds, types) and loss='s permille are 32-bit fields. A value
  // above UINT32_MAX must be refused rather than truncated: 2^32 + 1 would
  // otherwise replay as 1 and print back as a different artifact line.
  const std::string base = "v=1.2|e=1>2;2>1";
  ASSERT_TRUE(Genome::parse_line(base).has_value());
  const auto wm = Genome::parse_line(base + "|wm=4294967295:1:1");
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->wire_rate_pm, 4294967295u);
  for (const char* field :
       {"|wm=4294967297:1:1", "|wm=1:4294967297:1", "|wm=1:1:4294967297",
        "|loss=4294967396:0"}) {
    EXPECT_FALSE(Genome::parse_line(base + field).has_value()) << field;
  }
  const auto loss = Genome::parse_line(base + "|loss=100:0");
  ASSERT_TRUE(loss.has_value());
  EXPECT_EQ(loss->loss_pm, 100u);
}

TEST(GenomeTest, ParseRejectsTimeFieldOverflow) {
  // Every SimTime field (signed 64-bit) takes kSimTimeMax and refuses one
  // more rather than wrapping it negative: 2^63 would otherwise replay as
  // -2^63 (or switch the loss model off) and print back as another line.
  const std::string base = "v=1.2|e=1>2;2>1";
  const auto with = [](std::string field, const std::string& time) {
    for (auto at = field.find('T'); at != std::string::npos;
         at = field.find('T')) {
      field.replace(at, 1, time);
    }
    return field;
  };
  for (const char* field :
       {"|gst=T", "|delta=T", "|hz=T", "|loss=0:T", "|burst=T:10:0",
        "|burst=0:T:0", "|burst=0:10:T", "|tl=crash:1@T", "|tl=drop:1>2@T-T",
        "|tl=part:1/2@0-T"}) {
    const std::string max = with(field, "9223372036854775807");
    const auto parsed = Genome::parse_line(base + max);
    ASSERT_TRUE(parsed.has_value()) << field;
    EXPECT_NE(parsed->to_line().find(max), std::string::npos) << field;
    for (const char* over : {"9223372036854775808", "18446744073709551615"}) {
      EXPECT_FALSE(Genome::parse_line(base + with(field, over)).has_value())
          << field << " " << over;
    }
  }
}

TEST(GenomeTest, WithoutVertexStripsEveryReference) {
  Genome genome = bridge_hiding_genome();
  genome.timeline.push_back(
      {TimelineGene::Kind::kCrash, p(5), {}, {}, {}, 60, 0});
  genome.timeline.push_back({TimelineGene::Kind::kPartition,
                             {},
                             {},
                             IdSet{p(5), p(6)},
                             IdSet{p(1), p(2)},
                             0,
                             100});
  const Genome reduced = explore::without_vertex(genome, p(5));
  EXPECT_FALSE(reduced.graph.has_vertex(p(5)));
  EXPECT_FALSE(reduced.faulty.contains(p(5)));
  EXPECT_FALSE(reduced.fake_pds.contains(p(5)));
  ASSERT_EQ(reduced.timeline.size(), 1U);  // crash dropped, partition kept
  EXPECT_EQ(reduced.timeline[0].kind, TimelineGene::Kind::kPartition);
  EXPECT_FALSE(reduced.timeline[0].group_a.contains(p(5)));
}

TEST(MutatorTest, EveryMutantPassesBuildValidation) {
  // The corpus-validity property: walk a mutation chain from each seed and
  // re-validate every mutant through the ScenarioBuilder gate (valid() is
  // exactly try { build() }). Also spot-check the structural bounds.
  Mutator mutator;
  Rng rng(2024);
  for (const Genome& seed : Explorer::default_seeds()) {
    ASSERT_TRUE(seed.valid());
    Genome current = seed;
    for (int step = 0; step < 60; ++step) {
      const auto mutant = mutator.mutate(current, rng);
      if (!mutant.has_value()) continue;  // attempt budget ran out; rare
      EXPECT_TRUE(mutant->valid()) << mutant->to_line();
      EXPECT_NO_THROW((void)mutant->to_builder().build());
      EXPECT_LE(mutant->graph.vertex_count(), Mutator::kMaxVertices);
      EXPECT_LE(mutant->timeline.size(), Mutator::kMaxTimeline);
      EXPECT_NE(mutant->to_line(), current.to_line());
      current = *mutant;
    }
  }
}

TEST(MutatorTest, IsDeterministicGivenTheRngStream) {
  Mutator mutator;
  const Genome seed = bridge_hiding_genome();
  Rng rng_a(7);
  Rng rng_b(7);
  for (int step = 0; step < 20; ++step) {
    const auto a = mutator.mutate(seed, rng_a);
    const auto b = mutator.mutate(seed, rng_b);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) EXPECT_EQ(a->to_line(), b->to_line());
  }
}

TEST(ShrinkerTest, BridgeHidingShrinksToAVerifiedFixpoint) {
  const Genome start = bridge_hiding_genome();
  const Shrinker shrinker;
  const Classification target{FindingKind::kAgreement,
                              /*requirements_satisfied=*/true};
  ASSERT_TRUE(shrinker.reproduces(start, target));

  const auto outcome = shrinker.shrink(start, target);
  EXPECT_TRUE(outcome.fixpoint);
  EXPECT_TRUE(shrinker.reproduces(outcome.genome, target))
      << outcome.genome.to_line();
  // Minimization is monotone in every deletable dimension.
  EXPECT_LE(outcome.genome.graph.vertex_count(), start.graph.vertex_count());
  EXPECT_LE(outcome.genome.graph.edge_count(), start.graph.edge_count());

  // The fixpoint property, re-checked independently: no single further
  // deletion still reproduces the classification.
  for (const Genome& reduction : Shrinker::reductions(outcome.genome)) {
    EXPECT_FALSE(shrinker.reproduces(reduction, target))
        << reduction.to_line();
  }
}

TEST(ShrinkerTest, PreservesTheRequirementsSatisfiedDimension) {
  // Shrinking a requirements-satisfied agreement attack must never slide
  // into the trivial split-brain (which breaks agreement only because the
  // requirements no longer hold).
  const Shrinker shrinker;
  const Classification target{FindingKind::kAgreement, true};
  const auto outcome = shrinker.shrink(bridge_hiding_genome(), target);
  EXPECT_TRUE(explore::requirements_satisfied(outcome.genome));
}

TEST(ExplorerTest, ResultIsIdenticalAcrossThreadCountsAndRepeats) {
  ExplorerOptions options;
  options.master_seed = 11;
  options.generations = 2;
  options.population = 10;
  options.shrink = false;  // keep the double run affordable; shrinking is
                           // serial and covered by the fixpoint tests
  const auto seeds = Explorer::default_seeds();

  options.threads = 1;
  const auto serial = Explorer(options).explore(seeds);
  options.threads = 4;
  const auto pooled = Explorer(options).explore(seeds);
  options.threads = 3;
  const auto odd = Explorer(options).explore(seeds);

  EXPECT_EQ(serial.digest(), pooled.digest());
  EXPECT_EQ(serial.digest(), odd.digest());
  EXPECT_EQ(serial.runs, pooled.runs);
  ASSERT_EQ(serial.corpus.size(), pooled.corpus.size());
  for (std::size_t i = 0; i < serial.corpus.size(); ++i) {
    EXPECT_EQ(serial.corpus[i].genome.to_line(),
              pooled.corpus[i].genome.to_line());
    EXPECT_EQ(serial.corpus[i].signature, pooled.corpus[i].signature);
  }
  ASSERT_EQ(serial.findings.size(), pooled.findings.size());
  for (std::size_t i = 0; i < serial.findings.size(); ++i) {
    EXPECT_EQ(serial.findings[i].name, pooled.findings[i].name);
    EXPECT_EQ(serial.findings[i].digest, pooled.findings[i].digest);
  }
}

TEST(ExplorerTest, RegisteredFindingsReplayByName) {
  ExplorerOptions options;
  options.master_seed = 11;
  options.generations = 2;
  options.population = 10;
  options.shrink = false;
  const auto result = Explorer(options).explore(Explorer::default_seeds());

  cup::ScenarioRegistry registry;
  explore::register_findings(registry, result.findings);
  EXPECT_EQ(registry.names_with_tag("explored").size(),
            result.findings.size());
  for (const explore::Finding& finding : result.findings) {
    const std::string name = "explored/" + finding.name;
    ASSERT_TRUE(registry.contains(name));
    const cup::RunReport replay = registry.run(name, finding.genome.seed);
    EXPECT_EQ(replay.verdict(), finding.verdict) << name;
    EXPECT_EQ(replay.digest(), finding.digest) << name;
  }
}

TEST(CoverageTest, SignatureSeparatesVerdictsAndCollapsesNoise) {
  // Two runs of the same scenario at nearby seeds land in the same
  // coverage class; a structurally different outcome lands in a new one.
  const Genome base = fig1b_genome();
  Genome seed2 = base;
  seed2.seed = 2;
  const auto report_a = cup::run_scenario(base.to_builder().build());
  const auto report_b = cup::run_scenario(seed2.to_builder().build());
  const auto report_bad =
      cup::run_scenario(bridge_hiding_genome().to_builder().build());
  EXPECT_EQ(explore::coverage_signature(report_a),
            explore::coverage_signature(report_b));
  EXPECT_NE(explore::coverage_signature(report_a),
            explore::coverage_signature(report_bad));

  explore::CoverageMap map;
  EXPECT_TRUE(map.add(explore::coverage_signature(report_a)));
  EXPECT_FALSE(map.add(explore::coverage_signature(report_b)));
  EXPECT_TRUE(map.add(explore::coverage_signature(report_bad)));
  EXPECT_EQ(map.size(), 2U);
}

}  // namespace
}  // namespace bftcup
