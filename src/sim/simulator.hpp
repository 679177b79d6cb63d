// Deterministic discrete-event simulator.
//
// Owns the processes (a dense ProcessTable), the key registry (simulated
// PKI), the delay policy, the fault timeline, the event queue, and the
// trace. Single-threaded; all nondeterminism flows from the seeded Rng, so a
// (seed, topology, policy, timeline) tuple replays bit-identically.
//
// The event queue is the hot path of every experiment sweep: a two-level
// bucketed queue (sim/bucket_queue.hpp) drains the exact (time, seq) total
// order with O(1) push/pop, and an Event is a small POD-ish record whose
// message payload is a refcounted MessageRef, so queue churn moves ~64
// bytes and a refcount instead of deep-copying PD vectors per delivery.
//
// A Simulator is *recyclable*: reset() returns it to the
// just-constructed state while keeping every capacity it grew (queue
// buckets, process slots) and the seed-bound signature memo, whose keys
// bind all of their inputs. cup::RunContext drives this to run batch
// sweeps with near-zero per-run setup cost; a reset simulator is
// observationally identical to a fresh one (asserted by the recycling
// property suite and BatchRunner's verify_determinism).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "crypto/sign_cache.hpp"
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
    /// Attach the signature memo (crypto/sign_cache.hpp) to the registry,
    /// so signing and verification reuse memoized signatures. Signatures
    /// are a pure function of (key seed, signer, payload), so replay stays
    /// bit-identical; off still counts verifications for the run report.
    bool verify_cache = true;
    /// Hostile-wire layer (sim/wire_mutator.hpp). When enabled, targeted
    /// deliveries are routed through encode_frame -> mutation ->
    /// decode_frame; frames the hardened decoder rejects are counted and
    /// dropped. Disabled (the default) costs nothing and leaves every
    /// digest unchanged.
    WireConfig wire;

    // --- recyclable-run plumbing (cup::RunContext) -----------------------
    /// Pre-size hints: process count and expected event volume. Zero means
    /// "no hint"; wrong hints cost only memory, never correctness.
    std::size_t expected_processes = 0;
    std::size_t expected_events = 0;
  };

  explicit Simulator(Options options);

  /// Returns the simulator to the just-constructed state for `options`,
  /// retaining grown capacity and the seed-bound signature memo. The
  /// previous run's processes, queue, trace, and timeline are destroyed.
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

  /// The signature memo itself (cap management by the owning context).
  [[nodiscard]] crypto::SignCache& sign_cache() { return sign_cache_; }

  /// Capability factory for a process (used by node builders that need the
  /// signer before the simulation starts, e.g. to pre-sign their PD).
  [[nodiscard]] crypto::Signer signer_for(ProcessId id) {
    return crypto::Signer(id, &registry_);
  }

 private:
  friend class Context;

  /// Queue record. Deliveries reference a shared immutable payload; timers
  /// and fault actions carry no payload at all.
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break => determinism
    ProcessId from;
    ProcessId to;
    msg::MessageRef message;
    std::int32_t timer_kind = 0;
    std::uint32_t fault_index = 0;  ///< into FaultTimeline::actions()
    enum class Kind : std::uint8_t { kDelivery, kTimer, kFault };
    Kind kind = Kind::kDelivery;
  };

  // Context entry points.
  void do_send(ProcessId from, ProcessId to, msg::MessageRef message);
  void do_set_timer(ProcessId who, SimTime delay, int kind);
  void do_decide(ProcessId who, Value value);
  void do_report_membership(ProcessId who, const IdSet& members);

  void schedule_fault_actions();
  void apply_fault(const FaultAction& action);
  void start_or_resume(ProcessTable::Slot& slot);
  void configure(bool reuse);
  void deliver_via_wire(ProcessTable::Slot& slot, const Event& ev,
                        Context& ctx);

  Options options_;
  Rng rng_;
  crypto::KeyRegistry registry_;
  crypto::SignCache sign_cache_;
  crypto::Verifier verifier_;
  std::unique_ptr<DelayPolicy> policy_;
  /// Present iff options_.wire.enabled (rebuilt by configure()).
  std::optional<WireMutator> wire_;
  ProcessTable table_;
  FaultTimeline timeline_;
  bool timeline_active_ = false;
  BucketQueue<Event> queue_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  bool started_ = false;
  Trace trace_;
  std::function<bool(const Trace&)> stop_;
};

}  // namespace bftcup::sim
