#include "protocol/pbft.hpp"

#include <algorithm>
#include <cassert>

#include "obs/span_tracer.hpp"
#include "protocol/timer_epoch.hpp"

namespace bftcup::protocol {
namespace {

/// Cap on the exponential backoff shift so timeouts stay finite.
constexpr std::uint32_t kMaxBackoffShift = 16;

/// Span-site names for the consensus phases (nullptr = not a PBFT phase
/// worth a span; ScopedSpan treats it as disabled).
const char* pbft_span_name(msg::MsgType type) {
  switch (type) {
    case msg::MsgType::kPbftPrePrepare:
      return "pbft.pre_prepare";
    case msg::MsgType::kPbftPrepare:
      return "pbft.prepare";
    case msg::MsgType::kPbftCommit:
      return "pbft.commit";
    case msg::MsgType::kPbftViewChange:
      return "pbft.view_change";
    case msg::MsgType::kPbftNewView:
      return "pbft.new_view";
    case msg::MsgType::kPbftDecide:
      return "pbft.decide";
    default:
      return nullptr;
  }
}

}  // namespace

PbftInstance::PbftInstance(ProcessId self, Config config)
    : self_(self), config_(std::move(config)) {
  assert(config_.members.contains(self_));
  // ⌈(|S| + f + 1)/2⌉ (paper §II-C).
  quorum_ = (config_.members.size() + config_.assumed_f + 1 + 1) / 2;
}

ProcessId PbftInstance::leader_of(std::uint32_t view) const {
  const auto& ids = config_.members.values();
  return ids[view % ids.size()];
}

void PbftInstance::start(Value value, sim::Context& ctx) {
  assert(!started_);
  started_ = true;
  proposal_ = value;
  enter_view(0, ctx);
}

void PbftInstance::enter_view(std::uint32_t view, sim::Context& ctx) {
  view_ = view;
  highest_requested_ = std::max(highest_requested_, view);
  ++timer_epoch_;
  arm_view_timer(view, ctx);

  if (leader_of(view) == self_ && !new_view_sent_[view] && view == 0) {
    // View 0: the initial leader pre-prepares its own proposal.
    msg::Message m;
    m.type = msg::MsgType::kPbftPrePrepare;
    m.view = view;
    m.value = proposal_;
    m.sig = ctx.signer().sign(msg::pbft_payload(m.type, view, proposal_));
    const auto ref = msg::MessageRef::make(std::move(m));
    ctx.broadcast(config_.members, ref);
    handle_message(self_, *ref, ctx);  // leaders process their own pre-prepare
  }
}

void PbftInstance::broadcast_phase(msg::MsgType phase, std::uint32_t view,
                                   Value value, sim::Context& ctx) {
  msg::Message m;
  m.type = phase;
  m.view = view;
  m.value = value;
  m.sig = ctx.signer().sign(msg::pbft_payload(phase, view, value));
  const auto ref = msg::MessageRef::make(std::move(m));
  ctx.broadcast(config_.members, ref);
  record_vote(phase, view, value, self_, ref->sig, ctx);
}

void PbftInstance::record_vote(msg::MsgType phase, std::uint32_t view,
                               Value value, ProcessId from,
                               const crypto::Signature& sig,
                               sim::Context& ctx) {
  auto& votes = (phase == msg::MsgType::kPbftPrepare ? prepares_ : commits_);
  votes[view].by_value[value].emplace(from, sig);
  maybe_progress(view, value, ctx);
}

void PbftInstance::maybe_progress(std::uint32_t view, Value value,
                                  sim::Context& ctx) {
  if (decided_) return;

  const auto& prep = prepares_[view].by_value[value];
  if (prep.size() >= quorum_) {
    // Prepared(view, value): remember the strongest certificate we can
    // prove — it gates which NEW-VIEW values we may accept later.
    if (!prepared_cert_ || prepared_cert_->view <= view) {
      msg::QuorumCert cert;
      cert.view = view;
      cert.value = value;
      for (const auto& [who, sig] : prep) cert.shares.push_back({who, sig});
      prepared_cert_ = std::move(cert);
    }
    // COMMIT only within the current view. Without this gate, prepares
    // arriving late for a view we already left would make us commit in two
    // views concurrently — two commit quorums for different values can
    // then assemble and split the decision.
    if (view == view_ && !commit_sent_[view]) {
      commit_sent_[view] = true;
      broadcast_phase(msg::MsgType::kPbftCommit, view, value, ctx);
    }
  }

  const auto& comm = commits_[view].by_value[value];
  if (comm.size() >= quorum_) {
    msg::QuorumCert cert;
    cert.view = view;
    cert.value = value;
    for (const auto& [who, sig] : comm) cert.shares.push_back({who, sig});
    decide_with_cert(value, std::move(cert), ctx);
  }
}

void PbftInstance::decide_with_cert(Value value, msg::QuorumCert cert,
                                    sim::Context& ctx) {
  if (decided_) return;
  decided_ = value;
  decide_cert_ = std::move(cert);
  // Single-shot decision forwarding: replicas that missed the commit quorum
  // (partitioned by an equivocating leader, late joiners) adopt the decision
  // from the certificate instead of waiting for a view change that can never
  // gather a quorum of undecided members.
  msg::Message m;
  m.type = msg::MsgType::kPbftDecide;
  m.view = decide_cert_->view;
  m.value = value;
  m.cert = decide_cert_;
  m.sig = ctx.signer().sign(
      msg::pbft_payload(m.type, decide_cert_->view, value));
  ctx.broadcast(config_.members, msg::MessageRef::make(std::move(m)));
}

bool PbftInstance::verify_cert(const msg::QuorumCert& cert,
                               msg::MsgType phase, sim::Context& ctx) const {
  if (cert.shares.size() < quorum_) return false;
  const Bytes payload = msg::pbft_payload(phase, cert.view, cert.value);
  IdSet seen;
  for (const msg::SigShare& share : cert.shares) {
    if (!config_.members.contains(share.signer)) return false;
    if (!seen.insert(share.signer)) return false;  // duplicate signer
    if (!ctx.verifier().verify(share.signer, payload, share.sig)) return false;
  }
  return true;
}

void PbftInstance::arm_view_timer(std::uint32_t view, sim::Context& ctx) {
  const SimTime timeout =
      config_.base_timeout << std::min<std::uint32_t>(view, kMaxBackoffShift);
  // Timers cannot be cancelled; encode the epoch so stale fires are ignored.
  ctx.set_timer(timeout, encode_timer_kind(kTimerKind, timer_epoch_));
}

void PbftInstance::start_view_change(std::uint32_t target_view,
                                     sim::Context& ctx) {
  if (decided_ || view_change_sent_[target_view]) return;
  view_change_sent_[target_view] = true;
  highest_requested_ = std::max(highest_requested_, target_view);
  // Escalate again if this view change stalls (e.g. Byzantine next leader).
  arm_view_timer(target_view, ctx);

  msg::Message m;
  m.type = msg::MsgType::kPbftViewChange;
  m.view = target_view;
  m.value = prepared_cert_ ? prepared_cert_->value : kNoValue;
  m.cert = prepared_cert_;
  m.sig = ctx.signer().sign(
      msg::pbft_payload(m.type, target_view, m.value));
  ctx.broadcast(config_.members, msg::MessageRef::make(std::move(m)));

  view_changes_[target_view][self_] = prepared_cert_;
  maybe_assume_leadership(target_view, ctx);
}

void PbftInstance::maybe_assume_leadership(std::uint32_t view,
                                           sim::Context& ctx) {
  if (decided_ || leader_of(view) != self_ || new_view_sent_[view]) return;
  const auto& vcs = view_changes_[view];
  if (vcs.size() < quorum_) return;
  new_view_sent_[view] = true;

  // Adopt the value of the highest-view certificate; fall back to our own
  // proposal when nothing was prepared anywhere.
  std::optional<msg::QuorumCert> best;
  for (const auto& [who, cert] : vcs) {
    if (cert && (!best || cert->view > best->view)) best = cert;
  }
  const Value value = best ? best->value : proposal_;

  msg::Message m;
  m.type = msg::MsgType::kPbftNewView;
  m.view = view;
  m.value = value;
  m.cert = best;
  m.sig = ctx.signer().sign(msg::pbft_payload(m.type, view, value));
  const auto ref = msg::MessageRef::make(std::move(m));
  ctx.broadcast(config_.members, ref);
  handle_message(self_, *ref, ctx);
}

bool PbftInstance::handle_message(ProcessId from, const msg::Message& message,
                                  sim::Context& ctx) {
  switch (message.type) {
    case msg::MsgType::kPbftPrePrepare:
    case msg::MsgType::kPbftPrepare:
    case msg::MsgType::kPbftCommit:
    case msg::MsgType::kPbftViewChange:
    case msg::MsgType::kPbftNewView:
    case msg::MsgType::kPbftDecide:
      break;
    default:
      return false;
  }
  if (!started_ || !is_member(from)) return true;

  // All PBFT messages are signed over (type, view, value).
  if (from != self_ &&
      !ctx.verifier().verify(
          from, msg::pbft_payload(message.type, message.view, message.value),
          message.sig)) {
    return true;  // forged — drop
  }

  // One span per handled phase message (sim+wall time over the handler,
  // including any quorum progress it triggers); arg carries the view.
  const obs::ScopedSpan span(pbft_span_name(message.type), message.view);

  switch (message.type) {
    case msg::MsgType::kPbftPrePrepare: {
      if (message.view != view_ || from != leader_of(message.view)) break;
      auto [it, inserted] = preprepared_.emplace(message.view, message.value);
      if (!inserted) break;  // only the first pre-prepare per view counts
      if (!prepare_sent_[message.view]) {
        prepare_sent_[message.view] = true;
        broadcast_phase(msg::MsgType::kPbftPrepare, message.view,
                        message.value, ctx);
      }
      break;
    }
    case msg::MsgType::kPbftPrepare:
      record_vote(msg::MsgType::kPbftPrepare, message.view, message.value,
                  from, message.sig, ctx);
      break;
    case msg::MsgType::kPbftCommit:
      record_vote(msg::MsgType::kPbftCommit, message.view, message.value,
                  from, message.sig, ctx);
      break;
    case msg::MsgType::kPbftViewChange: {
      if (message.view <= view_) break;
      std::optional<msg::QuorumCert> cert = message.cert;
      if (cert && !verify_cert(*cert, msg::MsgType::kPbftPrepare, ctx)) {
        cert.reset();
      }
      view_changes_[message.view][from] = cert;

      // Amplification: f+1 distinct members asking for a higher view proves
      // at least one correct member timed out — join them.
      std::uint32_t best_view = 0;
      for (const auto& [tv, senders] : view_changes_) {
        if (tv > view_ && senders.size() >= config_.assumed_f + 1) {
          best_view = std::max(best_view, tv);
        }
      }
      if (best_view > 0 && !view_change_sent_[best_view]) {
        start_view_change(best_view, ctx);
      }
      maybe_assume_leadership(message.view, ctx);
      break;
    }
    case msg::MsgType::kPbftNewView: {
      if (message.view < view_ || from != leader_of(message.view)) break;
      if (message.cert &&
          !verify_cert(*message.cert, msg::MsgType::kPbftPrepare, ctx)) {
        break;
      }
      // Safety gate: if we prepared x in view v, a conflicting value needs a
      // certificate from view >= v.
      if (prepared_cert_ && message.value != prepared_cert_->value) {
        if (!message.cert || message.cert->view < prepared_cert_->view) break;
      }
      enter_view(message.view, ctx);
      preprepared_[message.view] = message.value;
      if (!prepare_sent_[message.view]) {
        prepare_sent_[message.view] = true;
        broadcast_phase(msg::MsgType::kPbftPrepare, message.view,
                        message.value, ctx);
      }
      break;
    }
    case msg::MsgType::kPbftDecide: {
      if (!message.cert || message.cert->value != message.value) break;
      if (!verify_cert(*message.cert, msg::MsgType::kPbftCommit, ctx)) break;
      decide_with_cert(message.value, *message.cert, ctx);
      break;
    }
    default:
      break;
  }
  return true;
}

void PbftInstance::rearm_view_timer(sim::Context& ctx) {
  if (!started_ || decided_) return;
  // Supersede any pre-crash timer still in flight: if it fires after the
  // recovery it must read as stale, or every recovery would add another
  // live timer chain.
  ++timer_epoch_;
  arm_view_timer(view_, ctx);
}

void PbftInstance::on_timer(int kind, sim::Context& ctx) {
  if (timer_base_kind(kind) != kTimerKind || decided_ || !started_) return;
  if (!timer_epoch_matches(kind, timer_epoch_)) {
    return;  // stale timer from an old view or a pre-recovery chain
  }
  start_view_change(highest_requested_ + 1, ctx);
}

}  // namespace bftcup::protocol
