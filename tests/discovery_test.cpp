#include <gtest/gtest.h>

#include "graph/figures.hpp"
#include "protocol/discovery.hpp"
#include "test_util.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

/// Minimal process running only the Discovery component.
class DiscoveryOnlyProcess : public sim::Process {
 public:
  DiscoveryOnlyProcess(ProcessId id, IdSet pd)
      : sim::Process(id), discovery_(id, std::move(pd), 20) {}

  void on_start(sim::Context& ctx) override { discovery_.start(ctx); }
  void on_message(ProcessId from, const msg::Message& message,
                  sim::Context& ctx) override {
    discovery_.handle_message(from, message, ctx);
  }
  void on_timer(int kind, sim::Context& ctx) override {
    if ((kind & 0xff) == Discovery::kTimerKind) discovery_.on_timer(kind, ctx);
  }

  Discovery& discovery() { return discovery_; }

 private:
  Discovery discovery_;
};

struct Fixture {
  sim::Simulator simulator;
  std::map<ProcessId, DiscoveryOnlyProcess*> nodes;

  explicit Fixture(const graph::Digraph& g, const IdSet& silent = {},
                   std::uint64_t seed = 1, SimTime horizon = 5'000)
      : simulator([&] {
          sim::Simulator::Options options;
          options.seed = seed;
          options.horizon = horizon;
          options.net.gst = 0;
          options.net.delta = 5;
          return options;
        }()) {
    for (ProcessId id : g.vertices()) {
      if (silent.contains(id)) {
        simulator.add_process(
            std::make_unique<test::ScriptedProcess>(id));  // never answers
        continue;
      }
      auto node =
          std::make_unique<DiscoveryOnlyProcess>(id, g.out_neighbors(id));
      nodes.emplace(id, node.get());
      simulator.add_process(std::move(node));
    }
  }
};

TEST(DiscoveryTest, TheoremTwoOnFig1b) {
  // Theorem 2: every correct process eventually discovers all correct sink
  // members and receives their PDs.
  const auto inst = graph::figures::fig1b();
  Fixture fx(inst.graph, inst.faulty);
  fx.simulator.run();

  const IdSet correct_sink = inst.expected_sink;  // {1,2,3}
  for (const auto& [id, node] : fx.nodes) {
    const KnowledgeView& view = node->discovery().view();
    EXPECT_TRUE(correct_sink.is_subset_of(view.known()))
        << to_string(id) << " known";
    EXPECT_TRUE(correct_sink.is_subset_of(view.received()))
        << to_string(id) << " received";
  }
}

TEST(DiscoveryTest, NonSinkLearnsWholeSafeGraphOnFig1b) {
  const auto inst = graph::figures::fig1b();
  Fixture fx(inst.graph, inst.faulty);
  fx.simulator.run();
  // Process 5 starts knowing only {1,2}; the sink answers with everything it
  // has, which eventually includes all correct PDs reachable from 5.
  const KnowledgeView& v5 = fx.nodes.at(p(5))->discovery().view();
  for (std::uint64_t id : {1, 2, 3}) {
    EXPECT_NE(v5.pd_of(p(id)), nullptr) << "PD_" << id;
  }
}

TEST(DiscoveryTest, Fig1aClustersStayMutuallyUnknown) {
  // The impossibility structure: with Byzantine 4 silent, {1,2,3} never
  // learn that {5,...,8} exist, and vice versa.
  const auto inst = graph::figures::fig1a();
  Fixture fx(inst.graph, inst.faulty);
  fx.simulator.run();
  const KnowledgeView& v1 = fx.nodes.at(p(1))->discovery().view();
  for (std::uint64_t hidden : {5, 6, 7, 8}) {
    EXPECT_FALSE(v1.known().contains(p(hidden)));
  }
  const KnowledgeView& v8 = fx.nodes.at(p(8))->discovery().view();
  for (std::uint64_t hidden : {1, 2, 3}) {
    EXPECT_FALSE(v8.known().contains(p(hidden)));
  }
}

TEST(DiscoveryTest, ForgedPdIsRejected) {
  // A Byzantine process cannot fabricate another owner's PD: the signature
  // check drops it.
  sim::Simulator::Options options;
  options.horizon = 1'000;
  sim::Simulator simulator(options);

  auto victim = std::make_unique<DiscoveryOnlyProcess>(p(1), IdSet{p(2)});
  auto* victim_ptr = victim.get();

  auto attacker = std::make_unique<test::ScriptedProcess>(p(2));
  attacker->on_message_do([&](ProcessId from, const msg::Message& message,
                              sim::Context& ctx) {
    if (message.type != msg::MsgType::kGetPds) return;
    msg::Message reply;
    reply.type = msg::MsgType::kSetPds;
    msg::SignedPd forged;
    forged.owner = p(3);  // claims to be PD_3
    forged.pd = IdSet{p(2)};
    forged.sig = ctx.signer().sign(
        msg::SignedPd::payload(p(3), forged.pd));  // signed by 2, not 3!
    reply.pds = {std::make_shared<const msg::SignedPd>(forged)};
    // Also a self-signed own PD, which IS acceptable.
    msg::SignedPd own;
    own.owner = p(2);
    own.pd = IdSet{p(1)};
    own.sig = ctx.signer().sign(msg::SignedPd::payload(p(2), own.pd));
    reply.pds.push_back(std::make_shared<const msg::SignedPd>(own));
    ctx.send(from, std::move(reply));
  });

  simulator.add_process(std::move(victim));
  simulator.add_process(std::move(attacker));
  simulator.run();

  const KnowledgeView& view = victim_ptr->discovery().view();
  EXPECT_EQ(view.pd_of(p(3)), nullptr);   // forged: rejected
  ASSERT_NE(view.pd_of(p(2)), nullptr);   // self-signed: accepted
  EXPECT_EQ(*view.pd_of(p(2)), (IdSet{p(1)}));
  // S_PD holds the victim's own PD and PD_2, never the forgery.
  const auto& spds = victim_ptr->discovery().signed_pds();
  ASSERT_EQ(spds.size(), 2U);
  EXPECT_EQ(spds[0]->owner, p(1));
  EXPECT_EQ(spds[1]->owner, p(2));
}

TEST(DiscoveryTest, AcceptedPdsShareTheOwnersSignedObject) {
  // No node copies a PD, its own included: S_PD holds the very object its
  // owner signed, and the view's set for that owner is the one inside it.
  const auto inst = graph::figures::fig1b();
  Fixture fx(inst.graph);
  fx.simulator.run();

  std::map<ProcessId, const msg::SignedPd*> signed_by;
  for (const auto& [id, node] : fx.nodes) {
    const auto& own = node->discovery().signed_pds().front();
    ASSERT_EQ(own->owner, id);
    signed_by.emplace(id, own.get());
  }
  std::size_t shared = 0;
  for (const auto& [id, node] : fx.nodes) {
    const Discovery& discovery = node->discovery();
    EXPECT_EQ(discovery.signed_pds().size(),
              discovery.view().received().size())
        << to_string(id);
    for (const msg::SignedPdRef& spd : discovery.signed_pds()) {
      const msg::SignedPd* original = signed_by.at(spd->owner);
      EXPECT_EQ(spd.get(), original) << to_string(id);
      EXPECT_EQ(discovery.view().pd_of(spd->owner), &original->pd)
          << to_string(id) << " view of " << to_string(spd->owner);
      ++shared;
    }
  }
  // Every node learns at least the three sink members' PDs.
  EXPECT_GE(shared, fx.nodes.size() * 2);
}

TEST(DiscoveryTest, StopQuiescesPolling) {
  const auto inst = graph::figures::fig2a();
  Fixture fx(inst.graph, /*silent=*/{}, /*seed=*/1, /*horizon=*/100'000);
  // Stop all discovery after the view converged; rounds must stop growing.
  fx.simulator.run();
  // Horizon-bounded: every node kept polling until the horizon. Rounds are
  // therefore >= horizon/period - 1; this guards the re-arming logic.
  for (const auto& [id, node] : fx.nodes) {
    EXPECT_GT(node->discovery().rounds(), 100U);
  }
}

TEST(DiscoveryTest, RoundsCountedAndViewMonotone) {
  const auto inst = graph::figures::fig2a();
  Fixture fx(inst.graph, inst.faulty, 7, 2'000);
  fx.simulator.run();
  auto& node = *fx.nodes.at(p(1));
  EXPECT_GE(node.discovery().rounds(), 1U);
  // All correct PDs of the K4 (minus silent 4) received.
  EXPECT_EQ(node.discovery().view().received(), (IdSet{p(1), p(2), p(3)}));
}

}  // namespace
}  // namespace bftcup::protocol
