#include <gtest/gtest.h>

#include "graph/figures.hpp"
#include "protocol/rrb.hpp"
#include "test_util.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

class RrbOnlyProcess : public sim::Process {
 public:
  RrbOnlyProcess(ProcessId id, IdSet pd, std::size_t f)
      : sim::Process(id), rrb_(id, std::move(pd), f, 200) {}

  void on_start(sim::Context& ctx) override { rrb_.start(ctx); }
  void on_message(ProcessId from, const msg::Message& message,
                  sim::Context& ctx) override {
    rrb_.handle_message(from, message, ctx);
  }
  void on_timer(int kind, sim::Context& /*ctx*/) override {
    if ((kind & 0xff) == RrbDiscovery::kTimerKind) {
      rrb_.stop();  // a single flood round suffices on reliable channels
    }
  }

  RrbDiscovery& rrb() { return rrb_; }

 private:
  RrbDiscovery rrb_;
};

struct Fixture {
  sim::Simulator simulator;
  std::map<ProcessId, RrbOnlyProcess*> nodes;

  Fixture(const graph::Digraph& g, std::size_t f, const IdSet& silent = {},
          std::uint64_t seed = 1)
      : simulator([&] {
          sim::Simulator::Options options;
          options.seed = seed;
          options.horizon = 50'000;
          options.net.delta = 5;
          return options;
        }()) {
    for (ProcessId id : g.vertices()) {
      if (silent.contains(id)) {
        simulator.add_process(std::make_unique<test::ScriptedProcess>(id));
        continue;
      }
      auto node = std::make_unique<RrbOnlyProcess>(id, g.out_neighbors(id), f);
      nodes.emplace(id, node.get());
      simulator.add_process(std::move(node));
    }
  }
};

TEST(RrbTest, DirectNeighborsDeliverImmediately) {
  graph::Digraph g;
  g.add_edge(p(1), p(2));
  g.add_edge(p(2), p(1));
  Fixture fx(g, 1);
  fx.simulator.run();
  EXPECT_NE(fx.nodes.at(p(1))->rrb().view().pd_of(p(2)), nullptr);
  EXPECT_NE(fx.nodes.at(p(2))->rrb().view().pd_of(p(1)), nullptr);
}

TEST(RrbTest, SinkMembersLearnEachOtherOnFig1b) {
  // f = 1: sink members are pairwise connected by 2+ disjoint paths (K4-ish
  // among {1,2,3,4} with 4 silent — direct edges still count).
  const auto inst = graph::figures::fig1b();
  Fixture fx(inst.graph, inst.f, inst.faulty);
  fx.simulator.run();
  for (std::uint64_t a : {1, 2, 3}) {
    for (std::uint64_t b : {1, 2, 3}) {
      if (a == b) continue;
      EXPECT_NE(fx.nodes.at(p(a))->rrb().view().pd_of(p(b)), nullptr)
          << a << " should deliver PD_" << b;
    }
  }
}

TEST(RrbTest, SingleIndirectPathIsNotEnough) {
  // 1 -> 2 -> 3 chain (with back edges to allow relaying): 3's PD reaches 1
  // only through 2, a single path — with f = 1 it must NOT be delivered.
  graph::Digraph g;
  g.add_edge(p(1), p(2));
  g.add_edge(p(2), p(1));
  g.add_edge(p(2), p(3));
  g.add_edge(p(3), p(2));
  Fixture fx(g, 1);
  fx.simulator.run();
  EXPECT_EQ(fx.nodes.at(p(1))->rrb().view().pd_of(p(3)), nullptr);
  // The signed protocol would have accepted it — that is the ablation gap.
}

TEST(RrbTest, TwoDisjointRelaysDeliver) {
  // origin 4 reaches 1 via relays 2 and 3 (disjoint).
  graph::Digraph g;
  for (auto [a, b] : {std::pair{4, 2}, {2, 4}, {4, 3}, {3, 4},
                      {2, 1}, {1, 2}, {3, 1}, {1, 3}}) {
    g.add_edge(p(a), p(b));
  }
  Fixture fx(g, 1);
  fx.simulator.run();
  EXPECT_NE(fx.nodes.at(p(1))->rrb().view().pd_of(p(4)), nullptr);
}

TEST(RrbTest, MalformedPathRejected) {
  sim::Simulator::Options options;
  options.horizon = 1'000;
  sim::Simulator simulator(options);
  auto victim = std::make_unique<RrbOnlyProcess>(p(1), IdSet{p(2)}, 1);
  auto* victim_ptr = victim.get();
  auto attacker = std::make_unique<test::ScriptedProcess>(p(2));
  attacker->on_start_do([](sim::Context& ctx) {
    // Claims a relay path whose last hop is not the sender.
    msg::Message m;
    m.type = msg::MsgType::kRrbForward;
    m.origin = p(9);
    m.origin_pd = IdSet{p(1)};
    m.path = {p(7)};
    ctx.send(p(1), std::move(m));
  });
  simulator.add_process(std::move(victim));
  simulator.add_process(std::move(attacker));
  simulator.run();
  EXPECT_EQ(victim_ptr->rrb().view().pd_of(p(9)), nullptr);
}

TEST(RrbTest, ConflictingContentsNeedDisjointPathsPerVersion) {
  // A Byzantine relay can inject a *different* PD for the origin; each
  // version accumulates its own evidence and a single lying relay can never
  // reach > f disjoint paths.
  sim::Simulator::Options options;
  options.horizon = 5'000;
  sim::Simulator simulator(options);

  auto victim = std::make_unique<RrbOnlyProcess>(p(1), IdSet{p(2), p(3)}, 1);
  auto* victim_ptr = victim.get();
  auto liar = std::make_unique<test::ScriptedProcess>(p(2));
  liar->on_start_do([](sim::Context& ctx) {
    msg::Message m;
    m.type = msg::MsgType::kRrbForward;
    m.origin = p(9);
    m.origin_pd = IdSet{p(2)};  // fake contents
    m.path = {p(2)};
    ctx.send(p(1), m);
  });
  auto honest = std::make_unique<test::ScriptedProcess>(p(3));

  simulator.add_process(std::move(victim));
  simulator.add_process(std::move(liar));
  simulator.add_process(std::move(honest));
  simulator.run();
  EXPECT_EQ(victim_ptr->rrb().view().pd_of(p(9)), nullptr);
}

}  // namespace
}  // namespace bftcup::protocol
