// Deterministic discrete-event simulator.
//
// Owns the processes (a dense ProcessTable), the key registry (simulated
// PKI), the delay policy, the fault timeline, the hostile wire (loss model
// and frame mutator), the event queue, and the trace. Single-threaded; all
// nondeterminism flows from the seeded Rng, so a (seed, topology, policy,
// timeline) tuple replays bit-identically. The hostile wire counts what it
// did in the run's metrics registry (wire.*).
//
// The event queue is the hot path of every experiment sweep: a two-level
// bucketed queue (sim/bucket_queue.hpp) drains events in time order, and
// events of one tick in push order, with O(1) push and amortized O(1) pop,
// near ticks in a ring and far ones (the pre-GST deliveries) in page
// lists; only an event a whole turn of the page slots (131,072 ticks) or
// more ahead is moved once more per turn. An Event is a 32-byte record:
// its sender and receiver are ProcessTable slot indices, resolved once
// when the message is sent, so dispatch indexes the slot vector with no id
// lookup, and its payload is a MessageRef, so queue churn moves 32 bytes
// and bumps a plain counter instead of deep-copying PD vectors per
// delivery. The run's metrics get the queue's retained bytes
// (sim.queue_bytes), the signature memo's (crypto.sign_memo_bytes) and the
// queue's pushes to page lists (sim.far_events).
//
// Nothing is pre-sized: the queue buckets, the page-list chunk pool and
// the process table grow to the traffic a run produces (the queue only
// ever holds what is in flight). A Simulator is *recyclable*: reset()
// returns it to the just-constructed state while keeping every capacity it
// grew. The key registry, with its signature memo, is run state: reset()
// replaces it. cup::RunContext drives this to run batch sweeps with
// near-zero per-run setup cost; a reset simulator is observationally
// identical to a fresh one (asserted by RunContextTest and
// BatchRunnerTest.ParallelSweepMatchesSerialBitForBit).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "crypto/keys.hpp"
#include "msg/message_ref.hpp"
#include "sim/bucket_queue.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/process_table.hpp"
#include "sim/trace.hpp"
#include "sim/wire_mutator.hpp"

namespace bftcup::sim {

class Simulator {
 public:
  struct Options {
    std::uint64_t seed = 1;
    NetConfig net;
    SimTime horizon = 1'000'000;  ///< hard stop (simulated time)
    /// Build the run's key registry with its signature memo
    /// (crypto::SignCache), so signing and verification within the run
    /// reuse memoized signatures. Signatures are a pure function of (key
    /// seed, signer, payload), so replay stays bit-identical; off still
    /// counts verifications for the run report.
    bool verify_cache = true;
    /// Lossy-network fault model (sim/network.hpp) on every send to a
    /// known recipient over an up link: the drop is drawn before the delay
    /// policy runs, the jitter after it. All-zero (the default) draws
    /// nothing and leaves every digest unchanged.
    LossConfig loss;
    /// Hostile-wire layer (sim/wire_mutator.hpp). When enabled, targeted
    /// deliveries are routed through encode_frame -> mutation ->
    /// decode_frame; frames the hardened decoder rejects are counted and
    /// dropped. Disabled (the default) costs nothing and leaves every
    /// digest unchanged.
    WireConfig wire;
  };

  explicit Simulator(Options options);
  // Contexts, signers and verifier_ hold this object's address (verifier_
  // points at registry_), so a Simulator is neither copied nor moved.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = delete;
  Simulator& operator=(Simulator&&) = delete;

  /// Returns the simulator to the just-constructed state for `options`,
  /// retaining grown capacity. The previous run's processes, queue, trace,
  /// timeline and key registry (its signature memo and verify counters
  /// included) are destroyed.
  void reset(Options options);

  /// Registers a process. Must be called before run().
  void add_process(std::unique_ptr<Process> process);

  /// Stop early once this returns true (checked after every event).
  void set_stop_condition(std::function<bool(const Trace&)> cond);

  void set_delay_policy(std::unique_ptr<DelayPolicy> policy);

  /// Installs the fault script. The simulator keeps its own copy; runtime
  /// fault state never leaks back into the caller's timeline. An empty
  /// timeline is free and leaves the run byte-identical to a timeline-less
  /// one.
  void set_fault_timeline(FaultTimeline timeline);

  /// Runs to quiescence, the horizon, or the stop condition.
  void run();

  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] crypto::KeyRegistry& registry() { return registry_; }

 private:
  friend class Context;

  /// Queue record. Deliveries reference a shared immutable payload; timers
  /// and fault actions carry no payload at all. Events of one tick drain in
  /// push order (the queue's guarantee), which is the FIFO tie-break the
  /// digests pin, so the record carries no sequence number.
  struct Event {
    SimTime time = 0;
    msg::MessageRef message;
    std::uint32_t to = 0;    ///< receiver's slot (deliveries and timers)
    std::uint32_t from = 0;  ///< sender's slot (deliveries)
    union {
      std::int32_t timer_kind = 0;  ///< kTimer
      std::uint32_t fault_index;    ///< kFault: into FaultTimeline::actions()
    };
    enum class Kind : std::uint8_t { kDelivery, kTimer, kFault };
    Kind kind = Kind::kDelivery;
  };
  static_assert(sizeof(Event) == 32, "an Event is half a cache line");

  // Context entry points. `from_slot` and `who` are the caller's slot.
  void do_send(std::uint32_t from_slot, ProcessId to, msg::MessageRef message);
  void do_set_timer(std::uint32_t who, SimTime delay, int kind);
  void do_decide(ProcessId who, Value value);
  void do_report_membership(ProcessId who, const IdSet& members);

  void schedule_fault_actions();
  void apply_fault(const FaultAction& action);
  void start_or_resume(std::uint32_t index);
  void configure();
  void deliver_via_wire(ProcessTable::Slot& slot, ProcessId from,
                        const msg::Message& message, Context& ctx);

  Options options_;
  Rng rng_;
  crypto::KeyRegistry registry_;
  crypto::Verifier verifier_;
  std::unique_ptr<DelayPolicy> policy_;
  /// Present iff options_.wire.enabled (rebuilt by configure()).
  std::optional<WireMutator> wire_;
  ProcessTable table_;
  FaultTimeline timeline_;
  bool timeline_active_ = false;
  BucketQueue<Event> queue_;
  SimTime now_ = 0;
  bool started_ = false;
  Trace trace_;
  std::function<bool(const Trace&)> stop_;
};

}  // namespace bftcup::sim
