// Hostile-wire layer: determinism, transparency, safety, and the explorer
// plumbing around it.
//
// 1. Pinned digests for the wire/* registry family — the hostile-wire runs
//    are as bit-replayable as every other scenario, and safety (agreement,
//    validity) holds on all of them even though liveness may not.
// 2. Transparency: enabling the wire path at rate 0, or the loss wrapper
//    with all-zero knobs, reproduces the wire-off golden digests byte for
//    byte. This is the load-bearing guarantee that the layer costs nothing
//    when off and that encode_frame -> decode_frame is a faithful inverse
//    on every frame a real run produces.
// 3. WireMutator / LossyDelayPolicy determinism in isolation.
// 4. Genome wire genes: one-line artifact round-trip, pre-wire lines parse
//    to the wire-off defaults (corpus compatibility).
// 5. Builder validation, shrinker wire reductions, and the oracle's
//    kWireSafety attribution on the planted CI genome.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cup/runner.hpp"
#include "cup/scenario_builder.hpp"
#include "cup/scenario_registry.hpp"
#include "explore/genome.hpp"
#include "explore/oracle.hpp"
#include "explore/shrinker.hpp"
#include "msg/message.hpp"
#include "msg/wire.hpp"
#include "sim/network.hpp"
#include "sim/wire_mutator.hpp"

namespace bftcup {
namespace {

// --- 1. pinned digests ------------------------------------------------------

struct WireGolden {
  const char* scenario;
  std::uint64_t seed;
  const char* digest;
};

/// Captured on the implementation that introduced the hostile-wire layer
/// (tools/cup_explore --digests wire --seed {1,7}). Mutation schedules are a
/// pure function of (scenario, seed), so these must stay byte-identical.
constexpr WireGolden kWireCorpus[] = {
    {"wire/fig1b-bitflip", 1,
     "9ba0e91df9b6bc6f25739c05b78c99f0d9681d82c04b1934423f66fcc94eb0e6"},  // SOLVED
    {"wire/fig1b-bitflip", 7,
     "ff49fb975773647fd327732094ea7f465c62045899f71017a57c0125b74ba9b2"},  // SOLVED
    {"wire/fig1b-burst", 1,
     "571c3735496cd0f1ed0c722f9b6c63b1ddad81c2569eaf768969458fd21691b0"},  // NO-TERMINATION
    {"wire/fig1b-burst", 7,
     "2b54cda886fb94c30371b12a2aef76be94e269e54d90b591d26adfdd669071ca"},  // NO-TERMINATION
    {"wire/fig1b-lossy", 1,
     "bb037f7f390c73130a0fbd42f6353370eb9408e473734bdfda35b1575fc0b939"},  // SOLVED
    {"wire/fig1b-lossy", 7,
     "711d8ec28cef259b6263b7f7c4d27ecac84153a927e2ac1b35a528aa011b43aa"},  // NO-TERMINATION
    {"wire/fig1b-storm", 1,
     "486e2620b041bc25c0022a988e56b7b8b6a93c7832ac07178fb65b2cdeace97a"},  // NO-TERMINATION
    {"wire/fig1b-storm", 7,
     "e7f909ce861e56bf00852cae242393105188d8ded4106a1f39e6669edf752612"},  // SOLVED
    {"wire/fig4a-garbage", 1,
     "e6d65d59d7ff91134837d48ab7197b8632f6ab1c532a88debf1c33397a431f58"},  // NO-TERMINATION
    {"wire/fig4a-garbage", 7,
     "1d77ccdfff3703f261892d964875a578fc2d30b616dbbfb2f08c352420197916"},  // NO-TERMINATION
    {"wire/fig4a-splice-cert", 1,
     "6e6f5fb58457016b35b3583fd7dd4e739145dbc417ea593d400852872eb21817"},  // NO-TERMINATION
    {"wire/fig4a-splice-cert", 7,
     "2a1b1444b502cb0eb4ace1f2dda25b34f481924b1a7fc406ef80db767179c657"},  // NO-TERMINATION
};

TEST(WireCorpusTest, PinnedDigestsAndSafetyUnderHostileWire) {
  const auto& registry = cup::ScenarioRegistry::paper();
  for (const WireGolden& g : kWireCorpus) {
    const cup::RunReport report = registry.run(g.scenario, g.seed);
    EXPECT_EQ(report.digest(), g.digest)
        << g.scenario << " seed " << g.seed << " (" << report.verdict() << ")";
    // The wire may cost liveness (some of these never terminate); it must
    // never cost safety.
    EXPECT_TRUE(report.agreement) << g.scenario << " seed " << g.seed;
    EXPECT_TRUE(report.validity) << g.scenario << " seed " << g.seed;
    // Every wire scenario actually exercises its fault model.
    EXPECT_GT(report.frames_mutated + report.frames_lost, 0u)
        << g.scenario << " seed " << g.seed;
  }
}

TEST(WireCorpusTest, EveryWireTaggedScenarioIsPinned) {
  const auto names = cup::ScenarioRegistry::paper().names_with_tag("wire");
  EXPECT_EQ(names.size() * 2, std::size(kWireCorpus))
      << "new wire/* scenario: extend kWireCorpus (both seeds)";
}

// --- 2. transparency --------------------------------------------------------

// fig1b/silent goldens from tests/determinism_test.cpp kGoldenCorpus.
constexpr const char* kFig1bSilentSeed1 =
    "22043fed842d818a15b5f42c9c857f8cb2ff0df19bf4d06a9c9e282ef27a5657";
constexpr const char* kFig1bSilentSeed7 =
    "ff49fb975773647fd327732094ea7f465c62045899f71017a57c0125b74ba9b2";

TEST(WireTransparencyTest, RateZeroWirePathReproducesGoldenDigest) {
  // enabled + rate 0 routes every targeted delivery through
  // encode_frame -> decode_frame but never perturbs a frame. If the frame
  // codec were lossy in any way, these digests would diverge.
  const auto& registry = cup::ScenarioRegistry::paper();
  const auto run = [&](std::uint64_t seed) {
    return registry.builder("fig1b/silent", seed).wire_mutation(0.0).run();
  };
  EXPECT_EQ(run(1).digest(), kFig1bSilentSeed1);
  EXPECT_EQ(run(7).digest(), kFig1bSilentSeed7);
}

TEST(WireTransparencyTest, ZeroLossConfigReproducesGoldenDigest) {
  // loss(0, 0): the wrapper is installed but draws nothing and drops
  // nothing — bit-transparent per the LossyDelayPolicy contract.
  const auto& registry = cup::ScenarioRegistry::paper();
  const auto run = [&](std::uint64_t seed) {
    return registry.builder("fig1b/silent", seed).loss(0.0, 0).run();
  };
  EXPECT_EQ(run(1).digest(), kFig1bSilentSeed1);
  EXPECT_EQ(run(7).digest(), kFig1bSilentSeed7);
}

TEST(WireTransparencyTest, SetPdsRoundTripKeepsEverySignedPd) {
  // Decoding makes new PD objects; what must survive is their contents, in
  // order, repeats included (a replayed handle travels as two copies).
  msg::Message m;
  m.type = msg::MsgType::kSetPds;
  for (std::uint64_t owner = 1; owner <= 4; ++owner) {
    msg::SignedPd spd;
    spd.owner = ProcessId(owner);
    spd.pd = {ProcessId(owner + 1), ProcessId(owner * 1000)};
    spd.sig.bytes.fill(static_cast<std::uint8_t>(owner));
    m.pds.push_back(std::make_shared<const msg::SignedPd>(std::move(spd)));
  }
  m.pds.push_back(m.pds.front());

  const std::optional<msg::Message> decoded =
      msg::decode_frame(msg::encode_frame(m));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->pds.size(), m.pds.size());
  for (std::size_t i = 0; i < m.pds.size(); ++i) {
    EXPECT_EQ(*decoded->pds[i], *m.pds[i]) << "pd " << i;
  }
}

// --- 3. component determinism ----------------------------------------------

sim::WireConfig storm_config() {
  sim::WireConfig config;
  config.enabled = true;
  config.rate = 0.7;
  return config;
}

/// A deterministic stream of distinct valid frames to feed a mutator.
Bytes nth_frame(std::size_t i) {
  msg::Message m;
  m.type = msg::MsgType::kDecidedVal;
  m.value = Value(1000 + i);
  return msg::encode_frame(m);
}

TEST(WireMutatorTest, SameSeedSameSchedule) {
  sim::WireMutator a(storm_config(), /*sim_seed=*/42);
  sim::WireMutator b(storm_config(), /*sim_seed=*/42);
  for (std::size_t i = 0; i < 300; ++i) {
    const Bytes frame = nth_frame(i);
    const auto ra = a.process(frame);
    const auto rb = b.process(frame);
    EXPECT_EQ(ra.kind, rb.kind) << "delivery " << i;
    EXPECT_EQ(ra.frames, rb.frames) << "delivery " << i;
  }
}

TEST(WireMutatorTest, SimSeedRerollsSchedule) {
  sim::WireMutator a(storm_config(), 42);
  sim::WireMutator b(storm_config(), 43);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const Bytes frame = nth_frame(i);
    if (a.process(frame).frames != b.process(frame).frames) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(WireMutatorTest, RateZeroPassesFramesThroughUntouched) {
  sim::WireConfig config;
  config.enabled = true;
  config.rate = 0.0;
  sim::WireMutator mutator(config, 42);
  for (std::size_t i = 0; i < 50; ++i) {
    const Bytes frame = nth_frame(i);
    const auto result = mutator.process(frame);
    EXPECT_FALSE(result.kind.has_value());
    ASSERT_EQ(result.frames.size(), 1u);
    EXPECT_EQ(result.frames.front(), frame);
  }
}

TEST(LossyDelayPolicyTest, SameSeedSameDropAndDelaySchedule) {
  sim::LossConfig config;
  config.enabled = true;
  config.drop_p = 0.4;
  config.jitter = 5;
  const sim::NetConfig net;
  const auto schedule = [&] {
    sim::LossyDelayPolicy policy(
        std::make_unique<sim::RandomDelayPolicy>(), config);
    Rng rng(9);
    std::vector<SimTime> out;
    for (SimTime t = 0; t < 500; ++t) {
      // Mirror the simulator's per-send order: should_drop first, then
      // delivery_time only for survivors.
      if (policy.should_drop(ProcessId(1), ProcessId(2), t, rng, net)) {
        out.push_back(-1);
      } else {
        out.push_back(
            policy.delivery_time(ProcessId(1), ProcessId(2), t, rng, net));
      }
    }
    return out;
  };
  const auto a = schedule();
  const auto b = schedule();
  EXPECT_EQ(a, b);
  // Sanity: the schedule actually drops and delivers.
  EXPECT_GT(std::count(a.begin(), a.end(), SimTime(-1)), 0);
  EXPECT_LT(std::count(a.begin(), a.end(), SimTime(-1)),
            static_cast<long>(a.size()));
}

TEST(LossyDelayPolicyTest, AllZeroKnobsAreBitTransparent) {
  // With every knob at its zero default the wrapper must neither drop nor
  // touch the RNG: its delivery times match the bare inner policy draw for
  // draw on a same-seeded stream.
  sim::LossConfig zero;
  zero.enabled = true;
  const sim::NetConfig net;
  sim::LossyDelayPolicy wrapped(std::make_unique<sim::RandomDelayPolicy>(),
                                zero);
  sim::RandomDelayPolicy bare;
  Rng rng_wrapped(7);
  Rng rng_bare(7);
  for (SimTime t = 0; t < 200; ++t) {
    EXPECT_FALSE(
        wrapped.should_drop(ProcessId(1), ProcessId(2), t, rng_wrapped, net));
    EXPECT_EQ(
        wrapped.delivery_time(ProcessId(1), ProcessId(2), t, rng_wrapped, net),
        bare.delivery_time(ProcessId(1), ProcessId(2), t, rng_bare, net));
  }
}

TEST(LossyDelayPolicyTest, BurstWindowsRecurWithPeriod) {
  sim::LossConfig config;
  config.enabled = true;
  config.burst_start = 10;
  config.burst_len = 5;
  config.burst_period = 100;  // [10,15), [110,115), ...
  const sim::NetConfig net;
  sim::LossyDelayPolicy policy(std::make_unique<sim::RandomDelayPolicy>(),
                               config);
  Rng rng(1);
  const auto dropped = [&](SimTime t) {
    return policy.should_drop(ProcessId(1), ProcessId(2), t, rng, net);
  };
  // A burst is a total blackout inside, untouched outside.
  EXPECT_FALSE(dropped(9));
  EXPECT_TRUE(dropped(10));
  EXPECT_TRUE(dropped(14));
  EXPECT_FALSE(dropped(15));
  EXPECT_TRUE(dropped(112));
  EXPECT_FALSE(dropped(215));
  EXPECT_TRUE(dropped(1010));
}

// --- 4. genome wire genes ---------------------------------------------------

TEST(WireGenomeTest, WireGenesRoundTripThroughLine) {
  explore::Genome g;
  g.graph = graph::figures::fig1b().graph;
  g.faulty = {ProcessId(4)};
  g.wire_rate_pm = 250;
  g.wire_kinds = 1u << static_cast<std::size_t>(sim::WireMutationKind::kSplice);
  g.wire_types = 1u << static_cast<std::size_t>(msg::MsgType::kGetPds);
  g.loss_pm = 50;
  g.loss_jitter = 20;
  g.burst_start = 20;
  g.burst_len = 40;
  g.burst_period = 500;
  EXPECT_TRUE(g.wire_active());
  const std::string line = g.to_line();
  EXPECT_NE(line.find("|wm=250:4:1"), std::string::npos) << line;
  EXPECT_NE(line.find("|loss=50:20"), std::string::npos) << line;
  EXPECT_NE(line.find("|burst=20:40:500"), std::string::npos) << line;
  const auto back = explore::Genome::parse_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
  EXPECT_EQ(back->to_line(), line);
}

TEST(WireGenomeTest, WireOffGenomeEmitsPreWireLine) {
  // All-default wire genes must leave the artifact byte-identical to the
  // pre-wire format: no wm/loss/burst keys at all. Content-addressed
  // finding names and stored corpus lines depend on this.
  explore::Genome g;
  g.graph = graph::figures::fig1b().graph;
  g.faulty = {ProcessId(4)};
  EXPECT_FALSE(g.wire_active());
  const std::string line = g.to_line();
  EXPECT_EQ(line.find("wm="), std::string::npos) << line;
  EXPECT_EQ(line.find("loss="), std::string::npos) << line;
  EXPECT_EQ(line.find("burst="), std::string::npos) << line;
  const auto back = explore::Genome::parse_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->wire_rate_pm, 0u);
  EXPECT_EQ(back->wire_kinds, sim::kAllWireMutationKinds);
  EXPECT_EQ(back->wire_types, sim::kAllWireMsgTypes);
  EXPECT_EQ(back->loss_pm, 0u);
  EXPECT_EQ(back->burst_len, SimTime(0));
  EXPECT_FALSE(back->wire_active());
}

TEST(WireGenomeTest, WireGenesFlowIntoScenario) {
  explore::Genome g;
  g.graph = graph::figures::fig1b().graph;
  g.faulty = {ProcessId(4)};
  g.wire_rate_pm = 125;
  g.loss_pm = 40;
  g.loss_jitter = 3;
  const cup::Scenario s = g.to_builder().build();
  EXPECT_TRUE(s.sim.wire.enabled);
  EXPECT_DOUBLE_EQ(s.sim.wire.rate, 0.125);
  EXPECT_TRUE(s.loss.enabled);
  EXPECT_DOUBLE_EQ(s.loss.drop_p, 0.040);
  EXPECT_EQ(s.loss.jitter, SimTime(3));
}

// --- 5. builder validation, shrinker, oracle --------------------------------

TEST(WireBuilderTest, OutOfRangeWireKnobsThrow) {
  const auto& registry = cup::ScenarioRegistry::paper();
  EXPECT_THROW(registry.builder("fig1b/silent").wire_mutation(1.5).build(),
               cup::ScenarioError);
  EXPECT_THROW(
      registry.builder("fig1b/silent").wire_mutation(0.5, /*kind_mask=*/0)
          .build(),
      cup::ScenarioError);
  EXPECT_THROW(registry.builder("fig1b/silent")
                   .wire_mutation(0.5, sim::kAllWireMutationKinds,
                                  /*type_mask=*/sim::kAllWireMsgTypes + 1)
                   .build(),
               cup::ScenarioError);
  EXPECT_THROW(registry.builder("fig1b/silent").loss(2.0).build(),
               cup::ScenarioError);
}

/// The CI-planted wire-safety genome (tools/cup_explore --wire-smoke): a
/// two-bridge split topology whose wire-off baseline is NO-TERMINATION
/// (clean safety) and whose naive-mode run under frame mutation breaks
/// agreement.
constexpr const char* kWirePlantLine =
    "v=1.2.3.4.5.6.7.8|e=1>2;1>3;1>4;2>1;2>3;2>4;3>1;3>2;3>4;3>6;4>1;4>2;"
    "4>3;4>5;5>4;5>6;5>7;5>8;6>3;6>5;6>7;6>8;7>5;7>6;7>8;8>5;8>6;8>7|f=1|"
    "mode=naive|byz=silent|faulty=|fpd=|tl=|gst=0|delta=10|hz=300000|"
    "seed=16|cg=0|wm=250:63:2047";

TEST(WireShrinkerTest, ReductionsIncludeWireGeneShrinks) {
  const auto plant = explore::Genome::parse_line(kWirePlantLine);
  ASSERT_TRUE(plant.has_value());
  const auto reductions = explore::Shrinker::reductions(*plant);
  bool zeroes_rate = false;
  bool clears_one_kind = false;
  bool narrows_types = false;
  for (const explore::Genome& r : reductions) {
    if (r.wire_rate_pm == 0) zeroes_rate = true;
    if (r.wire_rate_pm == plant->wire_rate_pm &&
        std::popcount(r.wire_kinds) ==
            std::popcount(plant->wire_kinds) - 1) {
      clears_one_kind = true;
    }
    if (r.wire_rate_pm == plant->wire_rate_pm &&
        std::popcount(r.wire_types) ==
            std::popcount(plant->wire_types) - 1) {
      narrows_types = true;
    }
  }
  EXPECT_TRUE(zeroes_rate);
  EXPECT_TRUE(clears_one_kind);
  EXPECT_TRUE(narrows_types);

  explore::Genome lossy = *plant;
  lossy.wire_rate_pm = 0;
  lossy.loss_pm = 80;
  lossy.burst_start = 10;
  lossy.burst_len = 20;
  lossy.burst_period = 100;
  bool zeroes_loss = false;
  bool clears_burst = false;
  for (const explore::Genome& r : explore::Shrinker::reductions(lossy)) {
    if (r.loss_pm == 0 && r.burst_len == lossy.burst_len) zeroes_loss = true;
    if (r.burst_len == 0 && r.loss_pm == lossy.loss_pm) clears_burst = true;
  }
  EXPECT_TRUE(zeroes_loss);
  EXPECT_TRUE(clears_burst);
}

TEST(WireOracleTest, PlantClassifiesAsWireSafetyAndBaselineIsClean) {
  const auto plant = explore::Genome::parse_line(kWirePlantLine);
  ASSERT_TRUE(plant.has_value());
  ASSERT_TRUE(plant->wire_active());

  // The planted run breaks agreement under the hostile wire (naive mode has
  // no signatures, so a mutated frame can forge knowledge).
  const cup::RunReport report = cup::run_scenario(plant->to_builder().build());
  ASSERT_FALSE(report.agreement && report.validity);
  const auto classification = explore::classify(*plant, report);
  ASSERT_TRUE(classification.has_value());
  EXPECT_EQ(classification->kind, explore::FindingKind::kWireSafety);

  // The same genome with the wire stripped replays clean at the same seed —
  // the break is the wire's fault, not the scenario's.
  explore::Genome stripped = *plant;
  stripped.wire_rate_pm = 0;
  EXPECT_FALSE(stripped.wire_active());
  const cup::RunReport baseline =
      cup::run_scenario(stripped.to_builder().build());
  EXPECT_TRUE(baseline.agreement);
  EXPECT_TRUE(baseline.validity);

  // With attribution disabled the same run classifies as a plain agreement
  // finding (naive mode).
  explore::OracleOptions no_attr;
  no_attr.attribute_wire = false;
  const auto plain = explore::classify(*plant, report, no_attr);
  ASSERT_TRUE(plain.has_value());
  EXPECT_NE(plain->kind, explore::FindingKind::kWireSafety);
}

}  // namespace
}  // namespace bftcup
