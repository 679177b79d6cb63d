// FaultTimeline semantics (see sim/fault_timeline.hpp) and the cup-layer
// fault scenarios built on top of it.
#include <gtest/gtest.h>

#include "cup/scenario_builder.hpp"
#include "cup/scenario_registry.hpp"
#include "protocol/discovery.hpp"
#include "protocol/pbft.hpp"
#include "test_util.hpp"

namespace bftcup::sim {
namespace {

using test::ScriptedProcess;

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

msg::Message ping() {
  msg::Message m;
  m.type = msg::MsgType::kGetPds;
  return m;
}

/// delta == 1, the one-tick floor, makes every delivery land exactly one
/// tick after the send, so tests can reason about absolute times.
Simulator::Options lockstep_options() {
  Simulator::Options options;
  options.net.gst = 0;
  options.net.delta = 1;
  return options;
}

TEST(FaultTimelineTest, CrashDropsDeliveriesAndTimers) {
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.crash(p(2), 10);
  simulator.set_fault_timeline(timeline);

  int b_deliveries = 0;
  int b_timer_fires = 0;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) { ctx.set_timer(20, 1); });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_start_do([](Context& ctx) { ctx.set_timer(15, 1); });
  b->on_message_do(
      [&](ProcessId, const msg::Message&, Context&) { ++b_deliveries; });
  b->on_timer_do([&](int, Context&) { ++b_timer_fires; });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(b_deliveries, 0);   // sent at t=21, b down since t=10
  EXPECT_EQ(b_timer_fires, 0);  // armed for t=15, lapsed while down
  EXPECT_EQ(simulator.trace().messages_sent(), 1U);
  EXPECT_EQ(simulator.trace().messages_delivered(), 0U);
  EXPECT_EQ(simulator.trace().messages_dropped(), 1U);
}

TEST(FaultTimelineTest, RecoverResumesDeliveryAndCallsOnRecover) {
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.crash(p(2), 10).recover(p(2), 30);
  simulator.set_fault_timeline(timeline);

  SimTime recovered_at = -1;
  SimTime delivered_at = -1;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) { ctx.set_timer(40, 1); });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_recover_do([&](Context& ctx) { recovered_at = ctx.now(); });
  b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    delivered_at = ctx.now();
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(recovered_at, 30);
  EXPECT_EQ(delivered_at, 41);  // sent at t=40, b back up
  EXPECT_EQ(simulator.trace().messages_dropped(), 0U);
}

TEST(FaultTimelineTest, MessageInFlightAcrossRecoveryIsDelivered) {
  // a sends at t=5 with delivery at t=6; b crashes at 2 and recovers at 4 —
  // but also: a message sent at t=1 (delivery t=2) while b crashes exactly
  // at t=2 is dropped, because same-time fault actions apply first.
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.crash(p(2), 2).recover(p(2), 4);
  simulator.set_fault_timeline(timeline);

  std::vector<SimTime> deliveries;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    ctx.set_timer(1, 1);  // fires t=1: send -> delivery t=2 (dropped)
    ctx.set_timer(5, 2);  // fires t=5: send -> delivery t=6 (delivered)
  });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    deliveries.push_back(ctx.now());
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(deliveries, (std::vector<SimTime>{6}));
  EXPECT_EQ(simulator.trace().messages_dropped(), 1U);
}

TEST(FaultTimelineTest, LinkDownLosesOnlySendsInsideTheWindow) {
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.link_down(p(1), p(2), 10, 30);
  simulator.set_fault_timeline(timeline);

  std::vector<SimTime> deliveries;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    ctx.set_timer(5, 1);   // send at t=5: before the window, delivered
    ctx.set_timer(15, 2);  // send at t=15: inside, lost
    ctx.set_timer(30, 3);  // send at t=30: window is [10, 30), delivered
  });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    deliveries.push_back(ctx.now());
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(deliveries, (std::vector<SimTime>{6, 31}));
  EXPECT_EQ(simulator.trace().messages_sent(), 3U);
  EXPECT_EQ(simulator.trace().messages_dropped(), 1U);
}

TEST(FaultTimelineTest, LinkDownIsDirected) {
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.link_down(p(1), p(2), 0, 100);
  simulator.set_fault_timeline(timeline);

  int a_got = 0;
  int b_got = 0;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) { ctx.set_timer(5, 1); });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  a->on_message_do([&](ProcessId, const msg::Message&, Context&) { ++a_got; });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_start_do([](Context& ctx) { ctx.set_timer(5, 1); });
  b->on_timer_do([](int, Context& ctx) { ctx.send(p(1), ping()); });
  b->on_message_do([&](ProcessId, const msg::Message&, Context&) { ++b_got; });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(b_got, 0);  // 1 -> 2 is down
  EXPECT_EQ(a_got, 1);  // 2 -> 1 is unaffected
}

TEST(FaultTimelineTest, PartitionBlocksBothDirectionsUntilHeal) {
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.partition({p(1)}, {p(2)}, 0, 20);
  simulator.set_fault_timeline(timeline);

  std::vector<SimTime> deliveries;
  auto send_at = [](ScriptedProcess& proc, ProcessId to) {
    proc.on_start_do([](Context& ctx) {
      ctx.set_timer(5, 1);
      ctx.set_timer(25, 2);
    });
    proc.on_timer_do([to](int, Context& ctx) { ctx.send(to, ping()); });
  };
  auto a = std::make_unique<ScriptedProcess>(p(1));
  send_at(*a, p(2));
  a->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    deliveries.push_back(ctx.now());
  });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  send_at(*b, p(1));
  b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    deliveries.push_back(ctx.now());
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  // Both t=5 sends lost (both directions blocked); both t=25 sends arrive.
  EXPECT_EQ(deliveries, (std::vector<SimTime>{26, 26}));
  EXPECT_EQ(simulator.trace().messages_dropped(), 2U);
}

TEST(FaultTimelineTest, JoinDefersStartAndDropsEarlierTraffic) {
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.join(p(2), 50);
  simulator.set_fault_timeline(timeline);

  SimTime started_at = -1;
  int got = 0;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    ctx.set_timer(10, 1);  // delivery at t=11, before the join -> dropped
    ctx.set_timer(60, 2);  // delivery at t=61 -> delivered
  });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_start_do([&](Context& ctx) { started_at = ctx.now(); });
  b->on_message_do([&](ProcessId, const msg::Message&, Context&) { ++got; });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(started_at, 50);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(simulator.trace().messages_dropped(), 1U);
}

TEST(FaultTimelineTest, OverlappingLinkWindowsNest) {
  // Two overlapping outages of the same link: the first up event must end
  // only its own window, not both.
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.link_down(p(1), p(2), 0, 100);
  timeline.link_down(p(1), p(2), 50, 200);
  simulator.set_fault_timeline(timeline);

  std::vector<SimTime> deliveries;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    ctx.set_timer(120, 1);  // inside the second window -> lost
    ctx.set_timer(210, 2);  // after both windows -> delivered
  });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    deliveries.push_back(ctx.now());
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(deliveries, (std::vector<SimTime>{211}));
  EXPECT_EQ(simulator.trace().messages_dropped(), 1U);
}

TEST(FaultTimelineTest, CrashAndRecoverComposeWithLateJoin) {
  // crash/recover scheduled before a late join must not start the process
  // early: on_start fires exactly once, at the first moment it is both
  // joined and not crashed.
  struct Case {
    SimTime join, crash, recover, expected_start;
    bool expect_recover_call;
  };
  const Case cases[] = {
      {1'000, 500, 800, 1'000, false},  // recover before join: start at join
      {500, 600, 800, 500, true},       // normal: start, crash, recover
      {600, 500, 800, 800, false},      // join while crashed: start at recover
  };
  for (const Case& c : cases) {
    Simulator simulator(lockstep_options());
    FaultTimeline timeline;
    timeline.join(p(2), c.join).crash(p(2), c.crash).recover(p(2), c.recover);
    simulator.set_fault_timeline(timeline);

    std::vector<SimTime> starts;
    std::vector<SimTime> recovers;
    auto a = std::make_unique<ScriptedProcess>(p(1));
    auto b = std::make_unique<ScriptedProcess>(p(2));
    b->on_start_do([&](Context& ctx) { starts.push_back(ctx.now()); });
    b->on_recover_do([&](Context& ctx) { recovers.push_back(ctx.now()); });
    simulator.add_process(std::move(a));
    simulator.add_process(std::move(b));
    simulator.run();

    ASSERT_EQ(starts.size(), 1U) << "join=" << c.join;
    EXPECT_EQ(starts.front(), c.expected_start) << "join=" << c.join;
    EXPECT_EQ(recovers.size(), c.expect_recover_call ? 1U : 0U)
        << "join=" << c.join;
  }
}

namespace {

/// Minimal node wrapping a Discovery instance, with fault-recovery wiring.
class DiscoveryHarness final : public Process {
 public:
  DiscoveryHarness(ProcessId id, IdSet pd, SimTime period)
      : Process(id), discovery_(id, std::move(pd), period) {}

  void on_start(Context& ctx) override { discovery_.start(ctx); }
  void on_message(ProcessId from, const msg::Message& m,
                  Context& ctx) override {
    discovery_.handle_message(from, m, ctx);
  }
  void on_timer(int kind, Context& ctx) override {
    if ((kind & 0xff) == protocol::Discovery::kTimerKind) {
      discovery_.on_timer(kind, ctx);
    }
  }
  void on_recover(Context& ctx) override { discovery_.restart(ctx); }

  [[nodiscard]] const protocol::Discovery& discovery() const {
    return discovery_;
  }

 private:
  protocol::Discovery discovery_;
};

}  // namespace

TEST(FaultTimelineTest, RecoveryDoesNotDoubleTheDiscoveryPollRate) {
  // The timer armed before the crash fires *after* recovery (armed t=50,
  // fires t=100, crash window [60, 70)). Without the epoch guard both that
  // chain and restart()'s fresh chain would keep re-arming, doubling the
  // GETPDS rate for the rest of the run.
  Simulator::Options options = lockstep_options();
  options.horizon = 1'000;
  Simulator simulator(options);
  FaultTimeline timeline;
  timeline.crash(p(1), 60).recover(p(1), 70);
  simulator.set_fault_timeline(timeline);

  auto a = std::make_unique<DiscoveryHarness>(p(1), IdSet{p(2)}, 50);
  const DiscoveryHarness* a_raw = a.get();
  auto b = std::make_unique<test::ScriptedProcess>(p(2));
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  // One chain: start (t=0), t=50, restart (t=70), then every 50 ticks from
  // t=120 on — about 21 rounds. A doubled rate would be ~39.
  EXPECT_GE(a_raw->discovery().rounds(), 15U);
  EXPECT_LE(a_raw->discovery().rounds(), 25U);
}

TEST(FaultTimelineTest, WindowOpeningAtZeroCoversStartupTraffic) {
  // A partition documented as active from t=0 must already be in force
  // when on_start traffic is sent.
  Simulator simulator(lockstep_options());
  FaultTimeline timeline;
  timeline.partition({p(1)}, {p(2)}, 0, 50);
  simulator.set_fault_timeline(timeline);

  std::vector<SimTime> deliveries;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    ctx.send(p(2), ping());  // sent at t=0, inside the window -> lost
    ctx.set_timer(60, 1);    // sent at t=60, after the heal -> delivered
  });
  a->on_timer_do([](int, Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    deliveries.push_back(ctx.now());
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_EQ(deliveries, (std::vector<SimTime>{61}));
  EXPECT_EQ(simulator.trace().messages_dropped(), 1U);
}

namespace {

/// Wraps a non-leader PbftInstance; a kRearmKind timer triggers the
/// crash-recovery re-arm path mid-run.
class PbftHarness final : public Process {
 public:
  static constexpr int kRearmKind = 99;

  PbftHarness(ProcessId id, IdSet members) : Process(id) {
    protocol::PbftInstance::Config config;
    config.members = std::move(members);
    config.assumed_f = 1;
    config.base_timeout = 600;
    pbft_.emplace(id, std::move(config));
  }

  void on_start(Context& ctx) override {
    pbft_->start(/*value=*/7, ctx);
    ctx.set_timer(100, kRearmKind);
  }
  void on_message(ProcessId, const msg::Message&, Context&) override {}
  void on_timer(int kind, Context& ctx) override {
    if ((kind & 0xff) == kRearmKind) {
      pbft_->rearm_view_timer(ctx);
    } else if ((kind & 0xff) == protocol::PbftInstance::kTimerKind) {
      pbft_->on_timer(kind, ctx);
    }
  }

 private:
  std::optional<protocol::PbftInstance> pbft_;
};

}  // namespace

TEST(FaultTimelineTest, PbftRearmSupersedesThePendingViewTimer) {
  // The view timer armed at start (fires t~600) is superseded by the
  // re-arm at t=100 (fires t~700). Without the epoch bump both fires
  // would be valid and each view-change escalation would double: one
  // VIEWCHANGE broadcast (2 sends) is correct within the horizon.
  Simulator::Options options;
  options.net.gst = 0;
  options.net.delta = 1;
  options.horizon = 1'500;
  Simulator simulator(options);

  const IdSet members{p(1), p(2), p(3)};
  simulator.add_process(std::make_unique<PbftHarness>(p(2), members));
  for (std::uint64_t raw : {1ULL, 3ULL}) {
    simulator.add_process(std::make_unique<test::ScriptedProcess>(p(raw)));
  }
  simulator.run();

  EXPECT_EQ(simulator.trace().messages_sent(), 2U);
}

TEST(FaultTimelineTest, EmptyTimelineIsByteIdenticalToNone) {
  auto run_once = [](bool with_empty_timeline) {
    Simulator simulator(lockstep_options());
    if (with_empty_timeline) simulator.set_fault_timeline(FaultTimeline());
    std::vector<SimTime> arrivals;
    auto a = std::make_unique<ScriptedProcess>(p(1));
    a->on_start_do([](Context& ctx) {
      for (int i = 0; i < 10; ++i) ctx.send(p(2), ping());
    });
    auto b = std::make_unique<ScriptedProcess>(p(2));
    b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
      arrivals.push_back(ctx.now());
    });
    simulator.add_process(std::move(a));
    simulator.add_process(std::move(b));
    simulator.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

}  // namespace
}  // namespace bftcup::sim

namespace bftcup::cup {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(FaultScenarioTest, BuilderValidatesTimelineActions) {
  EXPECT_THROW(ScenarioBuilder(graph::figures::fig1b())
                   .crash_at(p(99), 10)
                   .build(),
               ScenarioError);
  EXPECT_THROW(ScenarioBuilder(graph::figures::fig1b())
                   .drop_link(p(1), p(2), 50, 50),
               ScenarioError);
  EXPECT_THROW(ScenarioBuilder(graph::figures::fig1b())
                   .partition({p(1), p(2)}, {p(2), p(3)}, 0, 100)
                   .build(),
               ScenarioError);
  // A well-formed timeline passes.
  EXPECT_NO_THROW(ScenarioBuilder(graph::figures::fig1b())
                      .crash_at(p(2), 10)
                      .recover_at(p(2), 100)
                      .build());
}

TEST(FaultScenarioTest, DynamicScenariosBehaveAsDocumented) {
  const auto& registry = ScenarioRegistry::paper();
  const struct {
    const char* name;
    const char* verdict;
  } expectations[] = {
      {"dyn/crash-mid-discovery", "SOLVED"},
      {"dyn/crash-mid-consensus", "SOLVED"},
      {"dyn/crash-beyond-budget", "NO-TERMINATION"},
      {"dyn/partition-heal-before-gst", "SOLVED"},
      {"dyn/staggered-join", "SOLVED"},
      {"dyn/link-flap", "SOLVED"},
  };
  for (const auto& expected : expectations) {
    const RunReport report = registry.run(expected.name, 3);
    EXPECT_EQ(report.verdict(), expected.verdict) << expected.name;
    EXPECT_TRUE(report.agreement) << expected.name;
    EXPECT_TRUE(report.validity) << expected.name;
  }
}

TEST(FaultScenarioTest, FaultRunsReportDrops) {
  const auto report =
      ScenarioRegistry::paper().run("dyn/staggered-join", 1);
  EXPECT_GT(report.messages_dropped, 0U);
  EXPECT_EQ(report.verdict(), "SOLVED");
}

TEST(FaultScenarioTest, FaultScenariosReplayBitIdentically) {
  const auto& registry = ScenarioRegistry::paper();
  for (const char* name :
       {"dyn/crash-mid-discovery", "dyn/partition-heal-before-gst",
        "dyn/staggered-join"}) {
    EXPECT_EQ(registry.run(name, 5).digest(), registry.run(name, 5).digest())
        << name;
  }
}

}  // namespace
}  // namespace bftcup::cup
