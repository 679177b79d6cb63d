#include "adversary/behaviors.hpp"

#include <array>

namespace bftcup::adversary {

ByzantineNode::ByzantineNode(ProcessId id, ByzantineConfig config)
    : sim::Process(id),
      discovery_(id, std::move(config.advertised_pd), /*period=*/0),
      config_(std::move(config)) {}

void ByzantineNode::on_start(sim::Context& ctx) {
  discovery_.sign_own_pd(ctx);

  if (config_.equivocate_consensus) {
    // Fire the equivocation once discovery has plausibly converged. The
    // adversary knows the membership, so no discovery is needed on its side.
    ctx.set_timer(1, 99);
  }
}

void ByzantineNode::equivocate(sim::Context& ctx) {
  if (equivocated_) return;
  equivocated_ = true;
  // Split the members into two halves and push conflicting full-phase
  // traffic at them. Signatures are the node's own, so they verify — the
  // damage is limited to whatever the quorum intersection argument allows.
  const auto& ids = config_.consensus_members.values();
  const std::size_t recipients = ids.size() - (config_.consensus_members.contains(id()) ? 1 : 0);
  // Six distinct payloads total (3 phases x 2 values); each half of the
  // membership receives shared refs, not per-recipient copies.
  constexpr msg::MsgType kPhases[] = {msg::MsgType::kPbftPrePrepare,
                                      msg::MsgType::kPbftPrepare,
                                      msg::MsgType::kPbftCommit};
  auto make_phase_refs = [&](Value v) {
    std::array<msg::MessageRef, 3> refs;
    for (std::size_t i = 0; i < 3; ++i) {
      msg::Message m;
      m.type = kPhases[i];
      m.view = 0;
      m.value = v;
      m.sig = ctx.signer().sign(msg::pbft_payload(kPhases[i], 0, v));
      refs[i] = msg::MessageRef::make(std::move(m));
    }
    return refs;
  };
  const auto refs_a = make_phase_refs(config_.value_a);
  const auto refs_b = make_phase_refs(config_.value_b);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == id()) continue;
    const auto& refs = (sent++ < recipients / 2) ? refs_a : refs_b;
    for (const msg::MessageRef& ref : refs) ctx.send(ids[i], ref);
  }
}

void ByzantineNode::on_timer(int kind, sim::Context& ctx) {
  if (kind == 99) equivocate(ctx);
}

void ByzantineNode::on_message(ProcessId from, const msg::Message& message,
                               sim::Context& ctx) {
  if (message.type != msg::MsgType::kGetDecidedVal) {
    // GETPDS / SETPDS as Algorithm 1 handles them; consensus traffic is
    // ignored (silent within PBFT).
    discovery_.handle_message(from, message, ctx);
    return;
  }
  if (config_.wrong_decided_value) {
    msg::Message reply;
    reply.type = msg::MsgType::kDecidedVal;
    reply.value = *config_.wrong_decided_value;
    // Signed as itself — a Byzantine process can vouch for any value with
    // its own key, so the fetch side's majority count (not the signature
    // check) is what protects validity here.
    reply.sig = ctx.signer().sign(msg::decided_val_payload(reply.value));
    ctx.send(from, std::move(reply));
  }
}

}  // namespace bftcup::adversary
