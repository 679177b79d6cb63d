// Time-scheduled fault injection (dynamic adversary, paper §II).
//
// The seed simulator fixed the fault set at construction time: a process was
// Byzantine from t=0 or correct forever. The paper's adversary is stronger —
// it controls *when* faults manifest. A FaultTimeline is an ordered script
// of fault actions the simulator turns into ordinary queue events, so fault
// state changes interleave with deliveries and timers in the same order
// (by time, and in push order within a tick) and the seeded bit-replay
// guarantee extends to fault scenarios unchanged. An empty timeline costs
// nothing and leaves every pre-existing run byte-identical.
//
// Semantics (documented here once, asserted by fault_timeline_test):
//  - crash(p, t):   from t on, deliveries and timers addressed to p are
//                   dropped at dispatch. Messages already in flight when p
//                   recovers are delivered normally.
//  - recover(p, t): p resumes; the simulator calls Process::on_recover so
//                   the process can re-arm timers lost while down.
//  - link_down:     messages *sent* from->to inside [at, up_at) are lost at
//                   send time. Traffic already in flight is unaffected
//                   (packets on the wire survive the cut).
//  - partition:     every link between group_a and group_b, both directions,
//                   is down inside [at, heal_at).
//  - join(p, t):    p's on_start is deferred to t (late join / churn);
//                   traffic addressed to p before t is dropped at dispatch.
//
// Joined/crashed are orthogonal, so crash/recover and join compose in any
// order: a process is up iff joined and not crashed, on_start fires exactly
// once at the first moment it is up, and later up-transitions call
// on_recover. Overlapping identical link/partition windows nest: each down
// event needs its own up event.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bftcup::sim {

struct FaultAction {
  enum class Kind : std::uint8_t {
    kCrash,
    kRecover,
    kLinkDown,
    kLinkUp,
    kPartition,
    kHeal,
    kJoin,
  };
  Kind kind = Kind::kCrash;
  SimTime at = 0;
  ProcessId subject;  ///< kCrash/kRecover/kJoin subject; kLink* source
  ProcessId peer;     ///< kLink* target
  IdSet group_a;      ///< kPartition/kHeal
  IdSet group_b;
};

[[nodiscard]] const char* to_string(FaultAction::Kind kind);

/// The script (shared, immutable once a run starts) plus the live link state
/// while a run executes. The simulator owns its copy; runtime state never
/// leaks back into the Scenario that configured it.
class FaultTimeline {
 public:
  FaultTimeline& crash(ProcessId p, SimTime at);
  FaultTimeline& recover(ProcessId p, SimTime at);
  /// Directed from->to outage over [at, up_at).
  FaultTimeline& link_down(ProcessId from, ProcessId to, SimTime at,
                           SimTime up_at);
  /// Bidirectional group outage over [at, heal_at).
  FaultTimeline& partition(IdSet group_a, IdSet group_b, SimTime at,
                           SimTime heal_at);
  FaultTimeline& join(ProcessId p, SimTime at);

  [[nodiscard]] bool empty() const { return actions_.empty(); }
  [[nodiscard]] const std::vector<FaultAction>& actions() const {
    return actions_;
  }

  // --- runtime, driven by the simulator ---

  /// Clears live link state (a timeline is reusable across runs).
  void reset_runtime();

  /// Applies a link-state action (kLinkDown/kLinkUp/kPartition/kHeal).
  /// Crash/recover/join are handled by the simulator itself, which owns the
  /// per-process up/down bit.
  void apply(const FaultAction& action);

  /// True iff a message sent from->to right now would be lost.
  [[nodiscard]] bool is_link_down(ProcessId from, ProcessId to) const;

 private:
  std::vector<FaultAction> actions_;
  std::vector<std::pair<ProcessId, ProcessId>> down_links_;
  std::vector<std::pair<IdSet, IdSet>> partitions_;
};

}  // namespace bftcup::sim
