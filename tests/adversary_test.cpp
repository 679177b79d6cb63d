#include <gtest/gtest.h>

#include "adversary/behaviors.hpp"
#include "cup/scenario_builder.hpp"
#include "protocol/discovery.hpp"
#include "test_util.hpp"

namespace bftcup::adversary {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

/// Victim running only Discovery, for probing Byzantine discovery behavior.
class Probe : public sim::Process {
 public:
  Probe(ProcessId id, IdSet pd)
      : sim::Process(id), discovery_(id, std::move(pd), 20) {}
  void on_start(sim::Context& ctx) override { discovery_.start(ctx); }
  void on_message(ProcessId from, const msg::Message& m,
                  sim::Context& ctx) override {
    discovery_.handle_message(from, m, ctx);
  }
  void on_timer(int kind, sim::Context& ctx) override {
    if ((kind & 0xff) == protocol::Discovery::kTimerKind) {
      discovery_.on_timer(kind, ctx);
    }
  }
  const protocol::KnowledgeView& view() const { return discovery_.view(); }

 private:
  protocol::Discovery discovery_;
};

sim::Simulator make_sim(SimTime horizon = 2'000) {
  sim::Simulator::Options options;
  options.horizon = horizon;
  return sim::Simulator(options);
}

TEST(AdversaryTest, SilentNodeSendsNothing) {
  auto simulator = make_sim();
  auto probe = std::make_unique<Probe>(p(1), IdSet{p(2)});
  auto* probe_ptr = probe.get();
  simulator.add_process(std::move(probe));
  simulator.add_process(std::make_unique<SilentNode>(p(2)));
  simulator.run();
  EXPECT_EQ(probe_ptr->view().pd_of(p(2)), nullptr);
}

TEST(AdversaryTest, FakePdIsServedAndVerifies) {
  auto simulator = make_sim();
  auto probe = std::make_unique<Probe>(p(1), IdSet{p(2)});
  auto* probe_ptr = probe.get();
  simulator.add_process(std::move(probe));

  ByzantineConfig config;
  config.advertised_pd = IdSet{p(7), p(8)};  // a lie about its own PD
  simulator.add_process(std::make_unique<ByzantineNode>(p(2), config));
  simulator.run();

  // Lying about one's OWN PD is allowed by the model; the signature is the
  // node's own, so the victim accepts it.
  ASSERT_NE(probe_ptr->view().pd_of(p(2)), nullptr);
  EXPECT_EQ(*probe_ptr->view().pd_of(p(2)), (IdSet{p(7), p(8)}));
}

TEST(AdversaryTest, RelayWithholdingCannotStopDirectContact) {
  // Byzantine 2 answers GETPDS with its own signed PD only, withholding
  // every PD it relays. That only slows discovery: once the victim learns 3
  // *exists* (from 2's own PD), the complete communication graph lets it
  // query 3 directly (§II-C: knowledge limits whom you can contact, not the
  // network).
  auto simulator = make_sim();
  auto probe = std::make_unique<Probe>(p(1), IdSet{p(2)});
  auto* probe_ptr = probe.get();
  simulator.add_process(std::move(probe));

  auto withholder = std::make_unique<test::ScriptedProcess>(p(2));
  withholder->on_message_do(
      [](ProcessId from, const msg::Message& m, sim::Context& ctx) {
        if (m.type != msg::MsgType::kGetPds) return;
        msg::SignedPd own;
        own.owner = p(2);
        own.pd = IdSet{p(3)};
        own.sig = ctx.signer().sign(msg::SignedPd::payload(p(2), own.pd));
        msg::Message reply;
        reply.type = msg::MsgType::kSetPds;
        reply.pds = {std::make_shared<const msg::SignedPd>(own)};
        ctx.send(from, std::move(reply));
      });
  simulator.add_process(std::move(withholder));
  simulator.add_process(std::make_unique<Probe>(p(3), IdSet{p(2)}));
  simulator.run();

  EXPECT_NE(probe_ptr->view().pd_of(p(2)), nullptr);
  EXPECT_TRUE(probe_ptr->view().known().contains(p(3)));
  EXPECT_NE(probe_ptr->view().pd_of(p(3)), nullptr);  // got it from 3 itself
}

TEST(AdversaryTest, CrashedByzantineNodeNeverAnswers) {
  // Crashing a Byzantine node is the fault timeline's job. Crashed at t = 1,
  // before the probe's first GETPDS can arrive (every delay is >= 1 tick,
  // and a fault precedes same-tick deliveries), it answers nothing, so its
  // PD never reaches the probe.
  auto simulator = make_sim(5'000);
  auto probe = std::make_unique<Probe>(p(1), IdSet{p(2)});
  auto* probe_ptr = probe.get();
  simulator.add_process(std::move(probe));

  ByzantineConfig config;
  config.advertised_pd = IdSet{p(1)};
  simulator.add_process(std::make_unique<ByzantineNode>(p(2), config));
  sim::FaultTimeline timeline;
  timeline.crash(p(2), 1);
  simulator.set_fault_timeline(std::move(timeline));
  simulator.run();

  EXPECT_GT(simulator.trace().messages_dropped(), 0U);  // GETPDS to 2 lost
  EXPECT_EQ(probe_ptr->view().pd_of(p(2)), nullptr);
}

TEST(AdversaryTest, WrongDecidedValueOnlyAffectsAskers) {
  auto simulator = make_sim();
  ByzantineConfig config;
  config.advertised_pd = IdSet{};
  config.wrong_decided_value = 666;
  auto byz = std::make_unique<ByzantineNode>(p(2), config);
  simulator.add_process(std::move(byz));

  Value got = 0;
  auto asker = std::make_unique<test::ScriptedProcess>(p(1));
  asker->on_start_do([](sim::Context& ctx) {
    msg::Message m;
    m.type = msg::MsgType::kGetDecidedVal;
    ctx.send(p(2), std::move(m));
  });
  asker->on_message_do(
      [&](ProcessId, const msg::Message& m, sim::Context&) {
        if (m.type == msg::MsgType::kDecidedVal) got = m.value;
      });
  simulator.add_process(std::move(asker));
  simulator.run();
  EXPECT_EQ(got, 666U);
}

TEST(AdversaryTest, EquivocationSignaturesVerifyButConflict) {
  // The equivocator's conflicting phase messages all carry ITS own valid
  // signatures — the attack is semantic, not cryptographic.
  auto simulator = make_sim();
  ByzantineConfig config;
  config.advertised_pd = IdSet{};
  config.equivocate_consensus = true;
  config.consensus_members = {p(1), p(2), p(3)};
  config.value_a = 1;
  config.value_b = 2;
  simulator.add_process(std::make_unique<ByzantineNode>(p(1), config));

  std::map<ProcessId, std::vector<Value>> seen;
  for (std::uint64_t id : {2, 3}) {
    auto node = std::make_unique<test::ScriptedProcess>(p(id));
    node->on_message_do([&, id](ProcessId from, const msg::Message& m,
                                sim::Context& ctx) {
      if (m.type != msg::MsgType::kPbftPrePrepare) return;
      EXPECT_TRUE(ctx.verifier().verify(
          from, msg::pbft_payload(m.type, m.view, m.value), m.sig));
      seen[p(id)].push_back(m.value);
    });
    simulator.add_process(std::move(node));
  }
  simulator.run();
  ASSERT_FALSE(seen[p(2)].empty());
  ASSERT_FALSE(seen[p(3)].empty());
  EXPECT_NE(seen[p(2)].front(), seen[p(3)].front());  // the equivocation
}

TEST(AdversaryTest, EndToEndFaultMatrixOnFig1b) {
  // Matrix sweep: every behavior x a couple of seeds; consensus must solve
  // and never adopt the bogus value.
  for (auto byz : {cup::ByzBehavior::kSilent, cup::ByzBehavior::kFakePd,
                   cup::ByzBehavior::kWrongValue,
                   cup::ByzBehavior::kEquivocate}) {
    for (std::uint64_t seed : {1, 9}) {
      const auto report = cup::ScenarioBuilder(graph::figures::fig1b())
                              .mode(cup::Mode::kAuth)
                              .byz(byz)
                              .seed(seed)
                              .run();
      EXPECT_TRUE(report.all_correct_decided)
          << "byz=" << static_cast<int>(byz) << " seed=" << seed;
      EXPECT_TRUE(report.agreement);
      for (const auto& [who, d] : report.decisions) {
        EXPECT_NE(d.value, 666U);
      }
    }
  }
}

}  // namespace
}  // namespace bftcup::adversary
