#include "protocol/discovery.hpp"

#include "obs/span_tracer.hpp"
#include "protocol/timer_epoch.hpp"

namespace bftcup::protocol {

Discovery::Discovery(ProcessId self, IdSet own_pd, SimTime period)
    : self_(self),
      own_pd_(std::move(own_pd)),
      period_(period),
      view_(self, own_pd_) {}

void Discovery::start(sim::Context& ctx) {
  if (started_) return;
  started_ = true;
  // Line 1: S_PD = { ⟨i, PD_i⟩_i }.
  msg::SignedPd own;
  own.owner = self_;
  own.pd = own_pd_;
  const Bytes payload = msg::SignedPd::payload(self_, own_pd_);
  own.sig = ctx.signer().sign(payload);
  spds_.push_back(std::move(own));

  // Line 2: periodically poll everyone we know.
  request_all(ctx);
  arm_timer(ctx);
}

void Discovery::arm_timer(sim::Context& ctx) {
  ctx.set_timer(period_, encode_timer_kind(kTimerKind, timer_epoch_));
}

void Discovery::request_all(sim::Context& ctx) {
  ++rounds_;
  const obs::ScopedSpan span("discovery.round", rounds_);
  if (!request_) {
    msg::Message req;
    req.type = msg::MsgType::kGetPds;
    request_ = msg::MessageRef::make(std::move(req));
  }
  ctx.broadcast(view_.known(), request_);
}

void Discovery::on_timer(int kind, sim::Context& ctx) {
  if (!active_) return;
  if (!timer_epoch_matches(kind, timer_epoch_)) {
    return;  // a restart() superseded this chain
  }
  request_all(ctx);
  arm_timer(ctx);
}

void Discovery::restart(sim::Context& ctx) {
  if (!active_ || !started_) return;
  ++timer_epoch_;
  request_all(ctx);
  arm_timer(ctx);
}

bool Discovery::handle_message(ProcessId from, const msg::Message& message,
                               sim::Context& ctx) {
  switch (message.type) {
    case msg::MsgType::kGetPds: {
      // Line 3: answer with S_PD. The answer is the same for every
      // requester until S_PD grows, so one frozen payload serves them all.
      if (!reply_cache_) {
        msg::Message reply;
        reply.type = msg::MsgType::kSetPds;
        reply.pds = spds_;
        reply_cache_ = msg::MessageRef::make(std::move(reply));
      }
      ctx.send(from, reply_cache_);
      return false;
    }
    case msg::MsgType::kSetPds: {
      // Lines 4-6: merge every *valid* signed PD.
      bool changed = false;
      for (const msg::SignedPd& spd : message.pds) {
        if (view_.pd_of(spd.owner) != nullptr) continue;  // already have it
        msg::SignedPd::payload_into(spd.owner, spd.pd, payload_scratch_);
        if (!ctx.verifier().verify(spd.owner, payload_scratch_, spd.sig)) {
          continue;  // forged or corrupted — ignore
        }
        view_.add_pd(spd.owner, spd.pd);
        spds_.push_back(spd);
        reply_cache_ = msg::MessageRef();  // S_PD grew; rebuild on demand
        changed = true;
      }
      return changed;
    }
    default:
      return false;
  }
}

}  // namespace bftcup::protocol
