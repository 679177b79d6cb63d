// Hostile-wire layer: determinism, transparency, safety, and the explorer
// plumbing around it.
//
// 1. Pinned digests for the wire/* registry family — the hostile-wire runs
//    are as bit-replayable as every other scenario, and safety (agreement,
//    validity) holds on all of them even though liveness may not.
// 2. Transparency: enabling the wire path at rate 0, or the loss model
//    with all-zero knobs, reproduces the wire-off golden digests byte for
//    byte. This is the load-bearing guarantee that the layer costs nothing
//    when off and that encode_frame -> decode_frame is a faithful inverse
//    on every frame a real run produces.
// 3. WireMutator determinism in isolation, and the simulator's loss model:
//    its draw order, transparency, burst windows, and pinned digests with
//    a custom delay policy, a fault timeline, and the largest jitter.
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
#include "obs/span_tracer.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/wire_mutator.hpp"
#include "test_util.hpp"

// Under a sanitizer build, a UBSan report fails this binary instead of
// scrolling past: the largest-jitter replay below guards an overflow that
// only UBSan can see.
extern "C" const char* __ubsan_default_options() {
  return "halt_on_error=1:print_stacktrace=1";
}

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
  // loss(0, 0): the loss model draws nothing and drops nothing —
  // bit-transparent per the sim::LossConfig contract.
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

/// The simulator's loss model on one link: process 1 sends one message per
/// tick at ticks 1..kLossSends, and the schedule maps each send to its
/// delivery tick, or -1 when the wire lost it.
constexpr SimTime kLossSends = 500;

struct LossRun {
  std::vector<SimTime> schedule;
  obs::MetricsSnapshot metrics;
};

LossRun run_loss(const sim::LossConfig& loss, std::uint64_t seed) {
  sim::Simulator::Options options;
  options.seed = seed;
  options.loss = loss;
  sim::Simulator simulator(options);
  LossRun out;
  out.schedule.assign(kLossSends, -1);
  auto sender = std::make_unique<test::ScriptedProcess>(ProcessId(1));
  sender->on_start_do([](sim::Context& ctx) { ctx.set_timer(1, 0); });
  sender->on_timer_do([](int, sim::Context& ctx) {
    msg::Message m;
    m.type = msg::MsgType::kDecidedVal;
    m.value = static_cast<Value>(ctx.now() - 1);  // the send's index
    ctx.send(ProcessId(2), std::move(m));
    if (ctx.now() < kLossSends) ctx.set_timer(1, 0);
  });
  auto receiver = std::make_unique<test::ScriptedProcess>(ProcessId(2));
  receiver->on_message_do(
      [&out](ProcessId, const msg::Message& m, sim::Context& ctx) {
        out.schedule.at(m.value) = ctx.now();
      });
  simulator.add_process(std::move(sender));
  simulator.add_process(std::move(receiver));
  obs::MetricsRegistry metrics;
  {
    const obs::ObsScope scope(&metrics, nullptr);
    simulator.run();
  }
  out.metrics = metrics.snapshot();
  return out;
}

/// The same link replayed on a bare Rng in the order the simulator draws:
/// per send, the drop, then the delay policy's delivery time, then the
/// jitter, clamped to the synchrony cap.
std::vector<SimTime> reference_schedule(const sim::LossConfig& loss,
                                        std::uint64_t seed) {
  Rng rng(seed);
  const sim::NetConfig net;
  sim::RandomDelayPolicy policy;
  std::vector<SimTime> out;
  for (SimTime t = 1; t <= kLossSends; ++t) {
    if (loss.in_burst(t) || rng.chance(loss.drop_p)) {
      out.push_back(-1);
      continue;
    }
    SimTime at = policy.delivery_time(ProcessId(1), ProcessId(2), t, rng, net);
    if (loss.jitter != 0) {
      const auto extra = static_cast<SimTime>(
          rng.next_below(static_cast<std::uint64_t>(loss.jitter) + 1));
      at = std::min(at + extra, sim::synchrony_cap(t, net));
    }
    out.push_back(at);
  }
  return out;
}

std::uint64_t lost_sends(const std::vector<SimTime>& schedule) {
  return static_cast<std::uint64_t>(
      std::count(schedule.begin(), schedule.end(), SimTime(-1)));
}

TEST(LossModelTest, SameSeedSameDropAndDelaySchedule) {
  sim::LossConfig loss;
  loss.drop_p = 0.4;
  loss.jitter = 5;
  const LossRun a = run_loss(loss, 9);
  const LossRun b = run_loss(loss, 9);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.schedule, reference_schedule(loss, 9));
  // Sanity: the schedule actually drops and delivers, and the run's metrics
  // count every loss.
  const std::uint64_t lost = lost_sends(a.schedule);
  EXPECT_GT(lost, 0u);
  EXPECT_LT(lost, static_cast<std::uint64_t>(kLossSends));
  EXPECT_EQ(a.metrics.counter("wire.frames_lost"), lost);
  EXPECT_NE(run_loss(loss, 10).schedule, a.schedule);
}

TEST(LossModelTest, AllZeroConfigDropsNothingAndMovesNoDraw) {
  // The default config must neither drop nor draw: every delivery matches
  // the bare delay policy draw for draw, and the run's metrics carry no
  // wire.* name.
  const LossRun run = run_loss(sim::LossConfig{}, 7);
  EXPECT_EQ(lost_sends(run.schedule), 0u);
  EXPECT_EQ(run.schedule, reference_schedule(sim::LossConfig{}, 7));
  for (const auto& [name, value] : run.metrics.counters) {
    EXPECT_NE(name.rfind("wire.", 0), 0u) << name;
  }
}

TEST(LossModelTest, BurstWindowsRecurWithPeriod) {
  sim::LossConfig loss;
  loss.burst_start = 10;
  loss.burst_len = 5;
  loss.burst_period = 100;  // [10,15), [110,115), ...
  // A burst is a total blackout inside, untouched outside.
  EXPECT_FALSE(loss.in_burst(9));
  EXPECT_TRUE(loss.in_burst(10));
  EXPECT_TRUE(loss.in_burst(14));
  EXPECT_FALSE(loss.in_burst(15));
  EXPECT_TRUE(loss.in_burst(112));
  EXPECT_FALSE(loss.in_burst(215));
  EXPECT_TRUE(loss.in_burst(1010));
  // On the link, exactly the sends inside a window are lost.
  const LossRun run = run_loss(loss, 1);
  for (SimTime t = 1; t <= kLossSends; ++t) {
    EXPECT_EQ(run.schedule[static_cast<std::size_t>(t - 1)] == -1,
              loss.in_burst(t))
        << "send at " << t;
  }
  EXPECT_EQ(lost_sends(run.schedule), 25u);  // five windows of five ticks
  EXPECT_EQ(run.metrics.counter("wire.frames_lost"), 25u);
}

struct LossPin {
  const char* what;
  std::uint64_t seed;
  const char* digest;
  std::uint64_t lost;  ///< wire.frames_lost
};

/// Captured while loss was a wrapper around the scenario's delay policy.
/// The simulator must draw the same values in the same order, so these
/// stay byte-identical.
constexpr LossPin kLossCompositionPins[] = {
    {"group-stretch", 1,
     "2c49ce81b6656106bde105f578914fe2d3e4ab62d8ed333cfa95c7b114651536", 4873},
    {"group-stretch", 7,
     "4553c7ac541e8733b776399f9f6baf3a58143b3a8160c30612626b8789710a80", 4833},
    {"timeline", 1,
     "6a281ce723000dd35744c083b573e785c89606091bb5750216c65f93aff94d58", 14427},
    {"timeline", 7,
     "4809767fc0db8f7160370fb27c576015093598690ce1c7cd40983125ab187b94", 13991},
    {"slow-sender", 1,
     "b67b29fa67c3cc2071be2c4abb6445fd011188bc655a9980c68e7fc6bd246f68", 13816},
    {"slow-sender", 7,
     "59ef3a5e428a1c017362f35c64a401e97a4a8fb993f0ff47c44cbfb883983ba3", 13699},
};

cup::ScenarioBuilder loss_composition(const std::string& what,
                                      std::uint64_t seed) {
  const auto& registry = cup::ScenarioRegistry::paper();
  if (what == "group-stretch") {
    // Theorem 7's system AB schedule (sim::GroupStretchPolicy).
    return registry.builder("fig2/system-ab-cupft", seed).loss(0.05, 20);
  }
  if (what == "timeline") {
    return registry.builder("dyn/link-flap", seed).loss(0.05, 20);
  }
  // Process 2's sends held until t = 300, pre-GST.
  return registry.builder("fig1b/silent", seed)
      .gst(1'000)
      .delay_policy([] {
        return std::make_unique<sim::SlowSenderPolicy>(
            std::make_unique<sim::RandomDelayPolicy>(), IdSet{ProcessId(2)},
            /*release_at=*/300);
      })
      .loss(0.05, 3);
}

TEST(LossModelTest, ComposesWithDelayPoliciesAndTimelines) {
  for (const LossPin& pin : kLossCompositionPins) {
    const cup::RunReport report = loss_composition(pin.what, pin.seed).run();
    EXPECT_EQ(report.digest(), pin.digest) << pin.what << " seed " << pin.seed;
    EXPECT_EQ(report.frames_lost, pin.lost) << pin.what << " seed " << pin.seed;
    EXPECT_EQ(report.metrics.counter("wire.frames_lost"), pin.lost)
        << pin.what << " seed " << pin.seed;
  }
}

TEST(LossModelTest, LargestJitterReplaysWithoutOverflow) {
  // Genome and builder both accept jitter = 2^63 - 1, the largest SimTime.
  // The jitter draw's bound jitter + 1 must not overflow; the run replays
  // the digest the wrapped bound gave.
  const auto genome = explore::Genome::parse_line(
      "v=1.2.3.4|e=1>2;1>3;1>4;2>1;2>3;2>4;3>1;3>2;3>4;4>1;4>2;4>3|f=1|"
      "mode=auth|byz=silent|faulty=4|fpd=|tl=|gst=0|delta=10|hz=300000|"
      "seed=1|cg=0|loss=0:9223372036854775807");
  ASSERT_TRUE(genome.has_value());
  ASSERT_EQ(genome->loss_jitter, kSimTimeMax);
  const cup::RunReport report =
      cup::run_scenario(genome->to_builder().build());
  EXPECT_EQ(report.verdict(), "SOLVED");
  EXPECT_EQ(report.digest(),
            "e2fe70bba5b1134aaf1e1d73ce1313ce799144b35bc02c3a52923a8854f6c953");
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
  EXPECT_DOUBLE_EQ(s.sim.loss.drop_p, 0.040);
  EXPECT_EQ(s.sim.loss.jitter, SimTime(3));
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
}

}  // namespace
}  // namespace bftcup
