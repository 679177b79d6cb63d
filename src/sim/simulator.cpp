#include "sim/simulator.hpp"

#include <cassert>

#include "common/logging.hpp"
#include "msg/wire.hpp"
#include "obs/span_tracer.hpp"

namespace bftcup::sim {

void Process::on_timer(int /*kind*/, Context& /*ctx*/) {}
void Process::on_recover(Context& /*ctx*/) {}

SimTime Context::now() const {
  return sim_->now();
}

void Context::send(ProcessId to, msg::Message message) {
  sim_->do_send(self_, to, msg::MessageRef::make(std::move(message)));
}

void Context::send(ProcessId to, msg::MessageRef message) {
  sim_->do_send(self_, to, std::move(message));
}

void Context::broadcast(const IdSet& to, const msg::Message& message) {
  broadcast(to, msg::MessageRef::make(message));
}

void Context::broadcast(const IdSet& to, const msg::MessageRef& message) {
  for (ProcessId id : to) {
    if (id != self_) sim_->do_send(self_, id, message);
  }
}

void Context::set_timer(SimTime delay, int kind) {
  sim_->do_set_timer(self_, delay, kind);
}

const crypto::Signer& Context::signer() const {
  ProcessTable::Slot* slot = sim_->table_.find(self_);
  assert(slot != nullptr);
  return slot->signer;
}

const crypto::Verifier& Context::verifier() const {
  return sim_->verifier_;
}

Rng& Context::rng() {
  ProcessTable::Slot* slot = sim_->table_.find(self_);
  assert(slot != nullptr);
  return slot->rng;
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
      registry_(options.seed ^ 0xb5f7c0deULL),
      verifier_(&registry_) {
  configure(/*reuse=*/false);
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
  // The signature memo persists: its key binds the registry seed, the
  // signer, and the payload, so every retained entry is still the correct
  // signature. configure() re-attaches it per the run's knob.
  registry_.reset(options_.seed ^ 0xb5f7c0deULL);
  next_seq_ = 0;
  now_ = 0;
  started_ = false;
  configure(/*reuse=*/true);
}

/// Shared tail of construction and reset: attaches the signature memo per
/// the run's knob, installs the default delay policy, and applies hints.
void Simulator::configure(bool reuse) {
  registry_.attach_sign_cache(options_.verify_cache ? &sign_cache_ : nullptr);
  policy_ = std::make_unique<RandomDelayPolicy>();
  wire_.reset();
  if (options_.wire.enabled) wire_.emplace(options_.wire, options_.seed);
  if (options_.expected_processes != 0) {
    table_.reserve(options_.expected_processes);
  }
  if (!reuse && options_.expected_events != 0) {
    queue_.reserve(options_.expected_events);  // capacity persists afterwards
  }
  if (options_.expected_processes != 0) {
    trace_.reserve(options_.expected_processes);
  }
}

void Simulator::add_process(std::unique_ptr<Process> process) {
  assert(!started_ && "processes must be added before run()");
  const ProcessId id = process->id();
  assert(!table_.contains(id) && "duplicate process id");
  // Fork order is add order — part of the replay contract.
  crypto::Signer signer(id, &registry_);
  Rng process_rng = rng_.fork(id.raw() + 17);
  table_.add(std::move(process), signer, std::move(process_rng));
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

void Simulator::do_send(ProcessId from, ProcessId to, msg::MessageRef message) {
  trace_.record_send(message.encoded_size(), message->type);
  if (timeline_active_ && timeline_.is_link_down(from, to)) {
    // Lost on the wire: sent (and counted as such), never queued.
    trace_.record_drop();
    return;
  }
  if (!table_.contains(to)) {
    // Sending to an id that does not exist (e.g. learned from a lying PD)
    // silently drops: there is no process to deliver to.
    return;
  }
  if (policy_->should_drop(from, to, now_, rng_, options_.net)) {
    // Lossy-network fault model: the message vanishes on the wire.
    trace_.record_drop();
    trace_.record_frame_lost();
    return;
  }
  Event ev;
  ev.time = policy_->delivery_time(from, to, now_, rng_, options_.net);
  ev.seq = next_seq_++;
  ev.kind = Event::Kind::kDelivery;
  ev.from = from;
  ev.to = to;
  ev.message = std::move(message);
  if (ev.time >= options_.horizon) return;  // never materializes in the run
  queue_.push(std::move(ev));
}

void Simulator::do_set_timer(ProcessId who, SimTime delay, int kind) {
  Event ev;
  ev.time = now_ + std::max<SimTime>(delay, 1);
  ev.seq = next_seq_++;
  ev.kind = Event::Kind::kTimer;
  ev.to = who;
  ev.timer_kind = kind;
  if (ev.time >= options_.horizon) return;
  queue_.push(std::move(ev));
}

void Simulator::do_decide(ProcessId who, Value value) {
  LOG_DEBUG("sim") << who << " decides " << value << " at t=" << now_;
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
  // here instead of queued. Later actions are queued first (low seq), so
  // at equal times faults still precede deliveries and timers.
  for (std::uint32_t i = 0; i < actions.size(); ++i) {
    if (actions[i].at <= 0) {
      apply_fault(actions[i]);
      continue;
    }
    if (actions[i].at >= options_.horizon) continue;
    Event ev;
    ev.time = actions[i].at;
    ev.seq = next_seq_++;
    ev.kind = Event::Kind::kFault;
    ev.fault_index = i;
    queue_.push(std::move(ev));
  }
}

/// Starts the process if this transition made it up for the first time,
/// or resumes it if it was already started. Must be called after a slot's
/// joined/crashed state changed upward.
void Simulator::start_or_resume(ProcessTable::Slot& slot) {
  if (!slot.up()) return;
  Context ctx(this, slot.process->id());
  if (!slot.started) {
    slot.started = true;
    slot.process->on_start(ctx);
  } else {
    slot.process->on_recover(ctx);
  }
}

void Simulator::apply_fault(const FaultAction& action) {
  LOG_DEBUG("sim") << "fault " << to_string(action.kind) << " at t=" << now_;
  timeline_.apply(action);
  ProcessTable::Slot* slot = table_.find(action.subject);
  switch (action.kind) {
    case FaultAction::Kind::kCrash:
      if (slot != nullptr) slot->crashed = true;
      break;
    case FaultAction::Kind::kRecover:
      if (slot != nullptr && slot->crashed) {
        slot->crashed = false;
        start_or_resume(*slot);
      }
      break;
    case FaultAction::Kind::kJoin:
      if (slot != nullptr && !slot->joined) {
        slot->joined = true;
        start_or_resume(*slot);
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
void Simulator::deliver_via_wire(ProcessTable::Slot& slot, const Event& ev,
                                 Context& ctx) {
  const Bytes frame = msg::encode_frame(*ev.message);
  WireMutator::Result result = wire_->process(frame);
  if (result.kind) trace_.record_frame_mutated(*result.kind);
  for (const Bytes& out : result.frames) {
    std::optional<msg::Message> decoded = msg::decode_frame(out);
    if (!decoded) {
      trace_.record_frame_rejected();
      continue;
    }
    slot.process->on_message(ev.from, *decoded, ctx);
  }
}

void Simulator::run() {
  // Observability (README "Observability"): resolve the run's metrics
  // observer once — the per-event cost below is a pointer null check when
  // metrics are off, and the counter is bumped through the interned
  // pointer, never a per-event name lookup. Pure observation: nothing read
  // back, so dispatch order and results are untouched.
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
    Context ctx(this, slot.process->id());
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

    const std::uint32_t index = table_.index_of(ev.to);
    if (index == ProcessTable::kNoIndex) continue;
    ProcessTable::Slot& slot = table_.slot(index);
    if (!slot.up()) {
      // Crashed or not yet joined: deliveries are lost, timers lapse.
      if (ev.kind == Event::Kind::kDelivery) trace_.record_drop();
      continue;
    }
    Context ctx(this, ev.to);
    if (ev.kind == Event::Kind::kDelivery) {
      trace_.record_delivery();
      const obs::ScopedSpan span("sim.dispatch.delivery", ev.to.raw());
      if (wire_ && wire_->targets(ev.message->type)) {
        deliver_via_wire(slot, ev, ctx);
      } else {
        slot.process->on_message(ev.from, *ev.message, ctx);
      }
    } else {
      const obs::ScopedSpan span("sim.dispatch.timer", ev.to.raw());
      slot.process->on_timer(ev.timer_kind, ctx);
    }
    if (stop_ && stop_(trace_)) break;
  }
}

}  // namespace bftcup::sim
