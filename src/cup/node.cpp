#include "cup/node.hpp"

#include <cassert>

#include "protocol/core.hpp"
#include "protocol/timer_epoch.hpp"

namespace bftcup::cup {
namespace {

/// Ticks between Discovery's periodic GETPDS polls (Alg. 1 line 2).
constexpr SimTime kDiscoveryPeriod = 50;
/// PBFT's view-0 timeout in ticks; it doubles per view change.
constexpr SimTime kPbftBaseTimeout = 600;
/// The least witness g an unknown-f rule adopts. With g = 0 any two
/// mutually-received processes pass the predicate by absorbing everything
/// known into S2, and a set that tolerates no fault would not be declared a
/// BFT sink: any Byzantine-tolerant deployment has f >= 1, hence
/// k(core) = f + 1 >= 2.
constexpr std::size_t kMinG = 1;

}  // namespace

CupNode::CupNode(ProcessId id, IdSet pd, Params params)
    : sim::Process(id),
      params_(std::move(params)),
      discovery_(id, std::move(pd), kDiscoveryPeriod),
      exchange_(id) {
  assert(params_.search != nullptr);
}

std::optional<protocol::SinkResult> CupNode::membership(
    const protocol::KnowledgeView& view) const {
  const protocol::SinkSearch& search = *params_.search;
  switch (params_.mode) {
    case Mode::kAuth:
      return protocol::try_find_sink(view, params_.f, search,
                                     params_.eval_cache);
    case Mode::kCupft: {
      auto core = protocol::try_find_core(view, search, params_.eval_cache);
      if (!core || core->g < kMinG) return std::nullopt;
      if (params_.closure_guard) {
        // Knowledge-closure guard: adopt a core only once the PD of every
        // known process outside it has been received. This defeats the
        // bridge-hiding fake-PD attack (a phantom candidate cannot become
        // the strict maximum before the hidden side is learned), but costs
        // liveness whenever a Byzantine process *outside* the core stays
        // silent forever — evidence that Algorithm 4 cannot be patched by a
        // purely local rule; tests/closure_guard_test.cpp pins both sides.
        for (ProcessId known : view.known()) {
          if (!core->members.contains(known) &&
              !view.received().contains(known)) {
            return std::nullopt;  // someone we know is still unheard-from
          }
        }
      }
      return core;
    }
    case Mode::kNaive: {
      // First self-declarable sink, preferring the largest witness g — no
      // core-uniqueness or subset-maximality checks. This is the rule the
      // impossibility result shows to be unsound.
      const std::vector<protocol::SinkCandidate> candidates =
          search.candidates(view);
      const protocol::SinkCandidate* best = nullptr;
      for (const protocol::SinkCandidate& c : candidates) {
        if (c.g >= kMinG && (best == nullptr || c.g > best->g)) best = &c;
      }
      if (best == nullptr) return std::nullopt;
      return protocol::SinkResult{best->members(), best->g};
    }
  }
  return std::nullopt;
}

void CupNode::on_start(sim::Context& ctx) {
  discovery_.start(ctx);
  maybe_find_membership(ctx);
}

void CupNode::maybe_find_membership(sim::Context& ctx) {
  if (membership_ || decided_) return;
  membership_ = membership(discovery_.view());
  if (!membership_) return;
  ctx.report_membership(membership_->members);

  if (membership_->members.contains(id())) {
    // Alg. 3 line 4: members run consensus among themselves.
    protocol::PbftInstance::Config config;
    config.members = membership_->members;
    config.assumed_f = membership_->g;
    config.base_timeout = kPbftBaseTimeout;
    pbft_ = std::make_unique<protocol::PbftInstance>(id(), std::move(config));
    pbft_->start(params_.proposal, ctx);
    for (auto& [from, message] : pending_pbft_) {
      pbft_->handle_message(from, message, ctx);
    }
    pending_pbft_.clear();
    if (pbft_->decided()) finalize(pbft_->decision(), ctx);
    if (recovering_ && !decided_) {
      // This member was down; the others may have decided and quiesced
      // while it was. Fetch the decided value alongside running PBFT —
      // whichever completes first finalizes.
      exchange_.request(membership_->members, ctx);
    }
  } else {
    // Alg. 3 lines 6-7: fetch the decision from a member majority.
    exchange_.request(membership_->members, ctx);
  }
}

void CupNode::finalize(Value value, sim::Context& ctx) {
  if (decided_) return;
  decided_ = value;
  ctx.decide(value);
  exchange_.set_local_decision(value, ctx);  // serve (deferred) requesters
  discovery_.stop();                         // let the simulation quiesce
}

void CupNode::on_message(ProcessId from, const msg::Message& message,
                         sim::Context& ctx) {
  switch (message.type) {
    case msg::MsgType::kGetPds:
    case msg::MsgType::kSetPds: {
      const bool changed = discovery_.handle_message(from, message, ctx);
      if (changed) maybe_find_membership(ctx);
      return;
    }
    case msg::MsgType::kPbftPrePrepare:
    case msg::MsgType::kPbftPrepare:
    case msg::MsgType::kPbftCommit:
    case msg::MsgType::kPbftViewChange:
    case msg::MsgType::kPbftNewView:
    case msg::MsgType::kPbftDecide: {
      if (!pbft_) {
        pending_pbft_.emplace_back(from, message);
        return;
      }
      pbft_->handle_message(from, message, ctx);
      if (pbft_->decided()) finalize(pbft_->decision(), ctx);
      return;
    }
    case msg::MsgType::kGetDecidedVal:
    case msg::MsgType::kDecidedVal: {
      exchange_.handle_message(from, message, ctx);
      if (const auto fetched = exchange_.fetched()) finalize(*fetched, ctx);
      return;
    }
    case msg::MsgType::kRrbForward:
      return;  // baseline traffic; CUP nodes ignore it
  }
}

void CupNode::on_recover(sim::Context& ctx) {
  if (decided_) return;
  recovering_ = true;
  // Timers armed before the crash lapsed while this node was down: restart
  // the periodic discovery poll (epoch-guarded, so a pre-crash timer that
  // happens to fire after recovery cannot double the polling rate; a no-op
  // once discovery was stopped) and the PBFT view timeout. Also re-ask the
  // members for the decided value —
  // replies (and, for a member, the PBFT-DECIDE certificate broadcast) sent
  // while down were lost. A member adopting a majority-of-members answer is
  // safe by the same argument as Alg. 3 lines 7-9: any majority of S
  // contains a correct member, and correct members answer only their actual
  // decision. Members that have not decided yet queue the request and
  // answer once they do.
  discovery_.restart(ctx);
  if (pbft_ && !pbft_->decided()) pbft_->rearm_view_timer(ctx);
  if (membership_) exchange_.request(membership_->members, ctx);
}

void CupNode::on_timer(int kind, sim::Context& ctx) {
  if (protocol::timer_base_kind(kind) == protocol::Discovery::kTimerKind) {
    if (!decided_) discovery_.on_timer(kind, ctx);
    return;
  }
  if (protocol::timer_base_kind(kind) == protocol::PbftInstance::kTimerKind &&
      pbft_) {
    pbft_->on_timer(kind, ctx);
    if (pbft_->decided()) finalize(pbft_->decision(), ctx);
  }
}

}  // namespace bftcup::cup
