#include <gtest/gtest.h>

#include <type_traits>

#include "test_util.hpp"

namespace bftcup::sim {
namespace {

using test::ScriptedProcess;

// The verifier and every Signer reach the key registry through the
// simulator's address; a moved-from simulator would leave them verifying
// through a destroyed registry.
static_assert(!std::is_copy_constructible_v<Simulator>);
static_assert(!std::is_move_constructible_v<Simulator>);
static_assert(!std::is_move_assignable_v<Simulator>);

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

msg::Message ping() {
  msg::Message m;
  m.type = msg::MsgType::kGetPds;
  return m;
}

TEST(SimulatorTest, DeliversMessagesWithinDelta) {
  Simulator::Options options;
  options.net.gst = 0;
  options.net.delta = 10;
  Simulator simulator(options);

  SimTime delivered_at = -1;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) { ctx.send(p(2), ping()); });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_message_do([&](ProcessId from, const msg::Message&, Context& ctx) {
    EXPECT_EQ(from, p(1));
    delivered_at = ctx.now();
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  EXPECT_GE(delivered_at, 1);
  EXPECT_LE(delivered_at, 10);
  EXPECT_EQ(simulator.trace().messages_sent(), 1U);
  EXPECT_EQ(simulator.trace().messages_delivered(), 1U);
}

TEST(SimulatorTest, PreGstMessagesArriveByGstPlusDelta) {
  Simulator::Options options;
  options.net.gst = 500;
  options.net.delta = 10;
  options.seed = 3;
  Simulator simulator(options);

  std::vector<SimTime> arrivals;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    for (int i = 0; i < 50; ++i) ctx.send(p(2), ping());
  });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  b->on_message_do([&](ProcessId, const msg::Message&, Context& ctx) {
    arrivals.push_back(ctx.now());
  });
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();

  ASSERT_EQ(arrivals.size(), 50U);
  bool any_late = false;  // adversary should actually use the pre-GST slack
  for (SimTime t : arrivals) {
    EXPECT_LE(t, 510);
    any_late |= (t > 10);
  }
  EXPECT_TRUE(any_late);
}

TEST(SimulatorTest, DeterministicReplay) {
  auto run_once = [] {
    Simulator::Options options;
    options.seed = 77;
    options.net.gst = 100;
    Simulator simulator(options);
    std::vector<SimTime> arrivals;
    auto a = std::make_unique<ScriptedProcess>(p(1));
    a->on_start_do([](Context& ctx) {
      for (int i = 0; i < 20; ++i) ctx.send(p(2), ping());
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
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulatorTest, TimersFireInOrder) {
  Simulator::Options options;
  Simulator simulator(options);
  std::vector<int> fired;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    ctx.set_timer(30, 3);
    ctx.set_timer(10, 1);
    ctx.set_timer(20, 2);
  });
  a->on_timer_do([&](int kind, Context&) { fired.push_back(kind); });
  simulator.add_process(std::move(a));
  simulator.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SendToUnknownIdIsDropped) {
  Simulator::Options options;
  Simulator simulator(options);
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) { ctx.send(p(42), ping()); });
  simulator.add_process(std::move(a));
  simulator.run();
  EXPECT_EQ(simulator.trace().messages_sent(), 1U);
  EXPECT_EQ(simulator.trace().messages_delivered(), 0U);
}

TEST(SimulatorTest, HorizonStopsTheRun) {
  Simulator::Options options;
  options.horizon = 100;
  Simulator simulator(options);
  int fires = 0;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) { ctx.set_timer(10, 1); });
  a->on_timer_do([&](int, Context& ctx) {
    ++fires;
    ctx.set_timer(10, 1);  // would re-arm forever
  });
  simulator.add_process(std::move(a));
  simulator.run();
  EXPECT_GT(fires, 0);
  EXPECT_LE(fires, 10);
}

TEST(SimulatorTest, StopConditionEndsEarly) {
  Simulator::Options options;
  Simulator simulator(options);
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) { ctx.set_timer(5, 1); });
  a->on_timer_do([](int, Context& ctx) {
    ctx.decide(7);
    ctx.set_timer(5, 1);
  });
  simulator.add_process(std::move(a));
  simulator.set_stop_condition(
      [](const Trace& t) { return !t.decisions().empty(); });
  simulator.run();
  EXPECT_EQ(simulator.trace().decisions().size(), 1U);
}

TEST(SimulatorTest, BroadcastSkipsSelf) {
  Simulator::Options options;
  Simulator simulator(options);
  int self_deliveries = 0;
  auto a = std::make_unique<ScriptedProcess>(p(1));
  a->on_start_do([](Context& ctx) {
    ctx.broadcast(IdSet{p(1), p(2)}, ping());
  });
  a->on_message_do(
      [&](ProcessId, const msg::Message&, Context&) { ++self_deliveries; });
  auto b = std::make_unique<ScriptedProcess>(p(2));
  simulator.add_process(std::move(a));
  simulator.add_process(std::move(b));
  simulator.run();
  EXPECT_EQ(self_deliveries, 0);
  EXPECT_EQ(simulator.trace().messages_sent(), 1U);
}

TEST(TraceTest, AgreementAndCompletion) {
  Trace trace;
  trace.record_decision(p(1), 5, 10);
  trace.record_decision(p(2), 5, 20);
  const IdSet both = {p(1), p(2)};
  EXPECT_TRUE(trace.agreement(both));
  EXPECT_TRUE(trace.all_decided(both));
  EXPECT_EQ(trace.completion_time(both), 20);
  EXPECT_EQ(trace.common_value(both), 5U);

  trace.record_decision(p(3), 9, 30);
  const IdSet all = {p(1), p(2), p(3)};
  EXPECT_FALSE(trace.agreement(all));
  EXPECT_FALSE(trace.common_value(all).has_value());
}

TEST(TraceTest, DuplicateDecisionIgnored) {
  Trace trace;
  trace.record_decision(p(1), 5, 10);
  trace.record_decision(p(1), 9, 20);  // Integrity: first decision sticks
  EXPECT_EQ(trace.decisions().at(p(1)).value, 5U);
}

TEST(TraceTest, PartialDecisionsNotComplete) {
  Trace trace;
  trace.record_decision(p(1), 5, 10);
  EXPECT_FALSE(trace.all_decided(IdSet{p(1), p(2)}));
  EXPECT_FALSE(trace.completion_time(IdSet{p(1), p(2)}).has_value());
  EXPECT_TRUE(trace.agreement(IdSet{p(1), p(2)}));  // vacuous
}

TEST(DelayPolicyTest, GroupStretchHoldsCrossTraffic) {
  NetConfig cfg;
  cfg.gst = 10'000;
  cfg.delta = 10;
  Rng rng(1);
  GroupStretchPolicy policy(std::make_unique<RandomDelayPolicy>(),
                            IdSet{p(1)}, IdSet{p(2)}, 5'000);
  for (int i = 0; i < 20; ++i) {
    EXPECT_GE(policy.delivery_time(p(1), p(2), 0, rng, cfg), 5'000);
    EXPECT_LE(policy.delivery_time(p(2), p(1), 0, rng, cfg), 10'010);
  }
  // Intra-group traffic is not stretched.
  bool any_fast = false;
  for (int i = 0; i < 50; ++i) {
    any_fast |= policy.delivery_time(p(1), p(3), 0, rng, cfg) < 5'000;
  }
  EXPECT_TRUE(any_fast);
}

TEST(DelayPolicyTest, SlowSenderHoldsAllItsTraffic) {
  NetConfig cfg;
  cfg.gst = 10'000;
  cfg.delta = 10;
  Rng rng(1);
  SlowSenderPolicy policy(std::make_unique<RandomDelayPolicy>(), IdSet{p(9)},
                          3'000);
  EXPECT_GE(policy.delivery_time(p(9), p(1), 0, rng, cfg), 3'000);
  bool any_fast = false;
  for (int i = 0; i < 50; ++i) {
    any_fast |= policy.delivery_time(p(1), p(9), 0, rng, cfg) < 3'000;
  }
  EXPECT_TRUE(any_fast);
}

TEST(DelayPolicyTest, SynchronyCapSaturates) {
  NetConfig cfg;
  cfg.gst = kSimTimeMax - 5;
  cfg.delta = 100;
  EXPECT_EQ(synchrony_cap(0, cfg), kSimTimeMax);
}

TEST(DelayPolicyTest, PostGstRespectsDelta) {
  NetConfig cfg;
  cfg.gst = 0;
  cfg.delta = 7;
  Rng rng(4);
  RandomDelayPolicy policy;
  for (int i = 0; i < 200; ++i) {
    const SimTime t = policy.delivery_time(p(1), p(2), 100, rng, cfg);
    EXPECT_GT(t, 100);
    EXPECT_LE(t, 107);
  }
}

}  // namespace
}  // namespace bftcup::sim
