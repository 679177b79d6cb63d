#include "cup/node_base.hpp"

#include <cassert>

#include "common/logging.hpp"

namespace bftcup::cup {

CupNodeBase::CupNodeBase(ProcessId id, Params params)
    : sim::Process(id),
      params_(std::move(params)),
      discovery_(id, params_.pd, params_.discovery_period),
      exchange_(id) {
  assert(params_.search != nullptr);
}

void CupNodeBase::on_start(sim::Context& ctx) {
  discovery_.start(ctx);
  maybe_find_membership(ctx);
}

void CupNodeBase::maybe_find_membership(sim::Context& ctx) {
  if (membership_ || decided_) return;
  std::optional<Membership> found = evaluate(discovery_.view());
  if (!found) return;
  membership_ = std::move(found);
  ctx.report_membership(membership_->members);
  LOG_DEBUG("cup") << id() << " membership "
                   << (membership_->members.contains(id()) ? "member"
                                                           : "non-member")
                   << " |S|=" << membership_->members.size()
                   << " f=" << membership_->assumed_f;

  if (membership_->members.contains(id())) {
    // Alg. 3 line 4: members run consensus among themselves.
    protocol::PbftInstance::Config config;
    config.members = membership_->members;
    config.assumed_f = membership_->assumed_f;
    config.base_timeout = params_.pbft_base_timeout;
    pbft_.emplace(id(), std::move(config));
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

void CupNodeBase::finalize(Value value, sim::Context& ctx) {
  if (decided_) return;
  decided_ = value;
  ctx.decide(value);
  exchange_.set_local_decision(value, ctx);  // serve (deferred) requesters
  discovery_.stop();                         // let the simulation quiesce
}

void CupNodeBase::on_message(ProcessId from, const msg::Message& message,
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

void CupNodeBase::on_recover(sim::Context& ctx) {
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

void CupNodeBase::on_timer(int kind, sim::Context& ctx) {
  if ((kind & 0xff) == protocol::Discovery::kTimerKind) {
    if (!decided_) discovery_.on_timer(kind, ctx);
    return;
  }
  if ((kind & 0xff) == protocol::PbftInstance::kTimerKind && pbft_) {
    pbft_->on_timer(kind, ctx);
    if (pbft_->decided()) finalize(pbft_->decision(), ctx);
  }
}

}  // namespace bftcup::cup
