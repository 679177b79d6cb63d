#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <string_view>

#include "msg/wire.hpp"
#include "obs/span_tracer.hpp"

namespace bftcup::sim {
namespace {

/// Adds one to the run's hostile-wire counter `name` (README "Hostile
/// wire"). Interned on first use, so a run the wire never touched carries
/// no wire.* name.
void count_wire_fault(std::string_view name) {
  if (obs::MetricsRegistry* const metrics = obs::current_metrics()) {
    metrics->counter(name).add();
  }
}

}  // namespace

void Process::on_timer(int /*kind*/, Context& /*ctx*/) {}
void Process::on_recover(Context& /*ctx*/) {}

SimTime Context::now() const {
  return sim_->now();
}

void Context::send(ProcessId to, msg::Message message) {
  sim_->do_send(slot_, to, msg::MessageRef::make(std::move(message)));
}

void Context::send(ProcessId to, msg::MessageRef message) {
  sim_->do_send(slot_, to, std::move(message));
}

void Context::broadcast(const IdSet& to, const msg::Message& message) {
  broadcast(to, msg::MessageRef::make(message));
}

void Context::broadcast(const IdSet& to, const msg::MessageRef& message) {
  for (ProcessId id : to) {
    if (id != self_) sim_->do_send(slot_, id, message);
  }
}

void Context::set_timer(SimTime delay, int kind) {
  sim_->do_set_timer(slot_, delay, kind);
}

crypto::Signer Context::signer() const {
  return crypto::Signer(self_, &sim_->registry_);
}

const crypto::Verifier& Context::verifier() const {
  return sim_->verifier_;
}

void Context::decide(Value value) {
  sim_->do_decide(self_, value);
}

void Context::report_membership(const IdSet& members) {
  sim_->do_report_membership(self_, members);
}

Simulator::Simulator(Options options)
    : options_(options),
      rng_(options.seed),
      registry_(options.seed ^ 0xb5f7c0deULL, options.verify_cache),
      verifier_(&registry_) {
  configure();
}

void Simulator::reset(Options options) {
  // Drop the previous run's state; the queue buckets and the slot vector
  // keep their capacity.
  table_.clear();
  queue_.clear();
  trace_ = Trace{};
  stop_ = nullptr;
  policy_.reset();
  timeline_ = FaultTimeline{};
  timeline_active_ = false;
  options_ = options;

  rng_ = Rng(options_.seed);
  // A new registry: the run's keys, and with them the sign memo and the
  // verify counters, start empty. verifier_ points at the member, which
  // move assignment keeps in place.
  registry_ = crypto::KeyRegistry(options_.seed ^ 0xb5f7c0deULL,
                                  options_.verify_cache);
  now_ = 0;
  started_ = false;
  configure();
}

/// Shared tail of construction and reset: installs the default delay
/// policy and the run's hostile wire.
void Simulator::configure() {
  policy_ = std::make_unique<RandomDelayPolicy>();
  wire_.reset();
  if (options_.wire.enabled) wire_.emplace(options_.wire, options_.seed);
}

void Simulator::add_process(std::unique_ptr<Process> process) {
  assert(!started_ && "processes must be added before run()");
  table_.add(std::move(process));
}

void Simulator::set_stop_condition(std::function<bool(const Trace&)> cond) {
  stop_ = std::move(cond);
}

void Simulator::set_delay_policy(std::unique_ptr<DelayPolicy> policy) {
  policy_ = std::move(policy);
}

void Simulator::set_fault_timeline(FaultTimeline timeline) {
  assert(!started_ && "the fault timeline must be set before run()");
  timeline_ = std::move(timeline);
}

void Simulator::do_send(std::uint32_t from_slot, ProcessId to,
                        msg::MessageRef message) {
  trace_.record_send(message.encoded_size(), message->type);
  const ProcessId from = table_.slot(from_slot).id;
  if (timeline_active_ && timeline_.is_link_down(from, to)) {
    // Lost on the wire: sent (and counted as such), never queued.
    trace_.record_drop();
    return;
  }
  const std::uint32_t to_slot = table_.index_of(to);
  if (to_slot == ProcessTable::kNoIndex) {
    // Sending to an id that does not exist (e.g. learned from a lying PD)
    // silently drops: there is no process to deliver to.
    return;
  }
  // Lossy-network fault model: the message vanishes on the wire. Neither a
  // burst nor a zero drop_p draws (Rng::chance decides p <= 0 without one).
  const LossConfig& loss = options_.loss;
  if (loss.in_burst(now_) || rng_.chance(loss.drop_p)) {
    trace_.record_drop();
    count_wire_fault("wire.frames_lost");
    return;
  }
  Event ev;
  ev.time = policy_->delivery_time(from, to, now_, rng_, options_.net);
  if (loss.jitter != 0) {
    // Extra delay clamped back to the cap: loss breaks reliability, not
    // synchrony. The bound is unsigned, since jitter + 1 overflows SimTime
    // at jitter = kSimTimeMax.
    const auto extra = static_cast<SimTime>(
        rng_.next_below(static_cast<std::uint64_t>(loss.jitter) + 1));
    const SimTime jittered =
        ev.time > kSimTimeMax - extra ? kSimTimeMax : ev.time + extra;
    ev.time = std::min(jittered, synchrony_cap(now_, options_.net));
  }
  ev.kind = Event::Kind::kDelivery;
  ev.from = from_slot;
  ev.to = to_slot;
  ev.message = std::move(message);
  if (ev.time >= options_.horizon) return;  // never materializes in the run
  queue_.push(std::move(ev));
}

void Simulator::do_set_timer(std::uint32_t who, SimTime delay, int kind) {
  Event ev;
  ev.time = now_ + std::max<SimTime>(delay, 1);
  ev.kind = Event::Kind::kTimer;
  ev.to = who;
  ev.timer_kind = kind;
  if (ev.time >= options_.horizon) return;
  queue_.push(std::move(ev));
}

void Simulator::do_decide(ProcessId who, Value value) {
  trace_.record_decision(who, value, now_);
}

void Simulator::do_report_membership(ProcessId who, const IdSet& members) {
  trace_.record_membership(who, members, now_);
}

void Simulator::schedule_fault_actions() {
  const auto& actions = timeline_.actions();
  // Late joiners start down; their kJoin action brings them up. (A join at
  // t=0 flips the slot back up in the apply pass below, before the start
  // loop — equivalent to a normal start.)
  for (const FaultAction& action : actions) {
    if (action.kind != FaultAction::Kind::kJoin) continue;
    if (ProcessTable::Slot* slot = table_.find(action.subject)) {
      slot->joined = false;
    }
  }
  // Fault actions apply before any same-time event. For t=0 that includes
  // the on_start calls themselves — a window opening at 0 must already be
  // in force when start-up traffic is sent — so t=0 actions are applied
  // here instead of queued. Later actions are queued first, before any
  // start-up traffic, so at equal times faults still precede deliveries and
  // timers.
  for (std::uint32_t i = 0; i < actions.size(); ++i) {
    if (actions[i].at <= 0) {
      apply_fault(actions[i]);
      continue;
    }
    if (actions[i].at >= options_.horizon) continue;
    Event ev;
    ev.time = actions[i].at;
    ev.kind = Event::Kind::kFault;
    ev.fault_index = i;
    queue_.push(std::move(ev));
  }
}

/// Starts the process in slot `index` if this transition made it up for
/// the first time, or resumes it if it was already started. Must be called
/// after the slot's joined/crashed state changed upward.
void Simulator::start_or_resume(std::uint32_t index) {
  ProcessTable::Slot& slot = table_.slot(index);
  if (!slot.up()) return;
  Context ctx(this, slot.id, index);
  if (!slot.started) {
    slot.started = true;
    slot.process->on_start(ctx);
  } else {
    slot.process->on_recover(ctx);
  }
}

void Simulator::apply_fault(const FaultAction& action) {
  timeline_.apply(action);
  // Crash, recover and join act on the subject's slot; an id the run holds
  // no process for has none.
  const std::uint32_t index = table_.index_of(action.subject);
  if (index == ProcessTable::kNoIndex) return;
  ProcessTable::Slot& slot = table_.slot(index);
  switch (action.kind) {
    case FaultAction::Kind::kCrash:
      slot.crashed = true;
      break;
    case FaultAction::Kind::kRecover:
      if (slot.crashed) {
        slot.crashed = false;
        start_or_resume(index);
      }
      break;
    case FaultAction::Kind::kJoin:
      if (!slot.joined) {
        slot.joined = true;
        start_or_resume(index);
      }
      break;
    case FaultAction::Kind::kLinkDown:
    case FaultAction::Kind::kLinkUp:
    case FaultAction::Kind::kPartition:
    case FaultAction::Kind::kHeal:
      break;  // link state lives inside the timeline
  }
}

/// Hostile-wire delivery: round-trip the payload through the byte codec so
/// the real decoder faces whatever the mutator produced. The receiver still
/// learns the queue's true sender id (sender authentication is part of the
/// channel model, not the frame), but every *byte* of the payload — type,
/// PDs, signatures, quorum cert — is attacker-controlled. Rejected frames
/// are counted and dropped; accepted ones are delivered as decoded, which
/// for an unmutated frame is bit-identical to the original message.
void Simulator::deliver_via_wire(ProcessTable::Slot& slot, ProcessId from,
                                 const msg::Message& message, Context& ctx) {
  const Bytes frame = msg::encode_frame(message);
  WireMutator::Result result = wire_->process(frame);
  if (result.kind) {
    count_wire_fault("wire.frames_mutated");
    count_wire_fault(std::string("wire.mutated.") + to_string(*result.kind));
  }
  for (const Bytes& out : result.frames) {
    std::optional<msg::Message> decoded = msg::decode_frame(out);
    if (!decoded) {
      count_wire_fault("wire.frames_rejected");
      continue;
    }
    slot.process->on_message(from, *decoded, ctx);
  }
}

void Simulator::run() {
  // Observability (README "Observability"): resolve the run's metrics
  // observer once — the per-event cost below is a pointer null check when
  // metrics are off, and the counter is bumped through the interned
  // pointer, never a per-event name lookup. The queue's far pushes and
  // retained bytes are read once, when the run ends. Pure observation:
  // nothing read back, so dispatch order and results are untouched.
  obs::MetricsRegistry* const metrics = obs::current_metrics();
  obs::MetricsRegistry::Counter* const event_counter =
      metrics != nullptr ? &metrics->counter("sim.events") : nullptr;

  started_ = true;
  table_.finalize();
  timeline_.reset_runtime();
  timeline_active_ = !timeline_.empty();
  if (timeline_active_) schedule_fault_actions();

  for (std::uint32_t i = 0; i < table_.size(); ++i) {
    ProcessTable::Slot& slot = table_.slot(i);
    // Down (late joiner / crashed at t=0) slots are started by their fault
    // action; a join at t=0 may have started its process already.
    if (!slot.up() || slot.started) continue;
    slot.started = true;
    Context ctx(this, slot.id, i);
    slot.process->on_start(ctx);
  }

  while (!queue_.empty()) {
    Event ev = queue_.pop();
    assert(ev.time >= now_);
    now_ = ev.time;
    if (now_ >= options_.horizon) break;
    if (event_counter != nullptr) event_counter->add();

    if (ev.kind == Event::Kind::kFault) {
      const obs::ScopedSpan span("sim.dispatch.fault");
      apply_fault(timeline_.actions()[ev.fault_index]);
      continue;  // fault actions never touch the trace; skip the stop check
    }

    ProcessTable::Slot& slot = table_.slot(ev.to);
    if (!slot.up()) {
      // Crashed or not yet joined: deliveries are lost, timers lapse.
      if (ev.kind == Event::Kind::kDelivery) trace_.record_drop();
      continue;
    }
    Context ctx(this, slot.id, ev.to);
    if (ev.kind == Event::Kind::kDelivery) {
      trace_.record_delivery();
      const obs::ScopedSpan span("sim.dispatch.delivery", slot.id.raw());
      const ProcessId from = table_.slot(ev.from).id;
      if (wire_ && wire_->targets(ev.message->type)) {
        deliver_via_wire(slot, from, *ev.message, ctx);
      } else {
        slot.process->on_message(from, *ev.message, ctx);
      }
    } else {
      const obs::ScopedSpan span("sim.dispatch.timer", slot.id.raw());
      slot.process->on_timer(ev.timer_kind, ctx);
    }
    if (stop_ && stop_(trace_)) break;
  }

  if (metrics != nullptr) {
    metrics->counter("sim.far_events").add(queue_.far_pushes());
    metrics->gauge("sim.queue_bytes").set(queue_.capacity_bytes());
    metrics->gauge("crypto.sign_memo_bytes")
        .set(registry_.sign_memo().capacity_bytes());
  }
}

}  // namespace bftcup::sim
