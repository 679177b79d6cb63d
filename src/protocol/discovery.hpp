// The Discovery algorithm (Algorithm 1), authenticated variant.
//
// A reusable component embedded in nodes: periodically asks every known
// process for the signed PDs it has collected (GETPDS), answers such
// requests with its own collection (SETPDS), and merges verified responses
// into a KnowledgeView. Because PDs are signed by their owners, a Byzantine
// process can neither alter a correct process's PD nor fabricate one — it
// can only lie about its *own* PD or stay silent.
#pragma once

#include <vector>

#include "protocol/knowledge_view.hpp"
#include "sim/process.hpp"

namespace bftcup::protocol {

class Discovery {
 public:
  /// Timer kind used for the periodic discovery task.
  static constexpr int kTimerKind = 1;

  Discovery(ProcessId self, IdSet own_pd, SimTime period);

  /// Signs the node's own PD and arms the periodic task (Alg. 1 lines 1-2).
  void start(sim::Context& ctx);

  /// Handles GETPDS / SETPDS. Returns true iff the view changed (the caller
  /// should re-evaluate its sink/core condition). Other message types are
  /// ignored and return false.
  bool handle_message(ProcessId from, const msg::Message& message,
                      sim::Context& ctx);

  /// Periodic task body. Re-arms itself while `active` is true — nodes
  /// clear the flag (stop()) once they no longer need new knowledge, letting
  /// the simulation quiesce. `kind` carries the arming epoch (upper bits);
  /// fires from a superseded chain are ignored, so restart() after a
  /// crash/recovery cannot double the polling rate.
  void on_timer(int kind, sim::Context& ctx);

  /// Re-arms the periodic task after a crash/recovery may have dropped the
  /// pending timer. Supersedes any still-pending timer (epoch bump), polls
  /// immediately, and starts a fresh chain.
  void restart(sim::Context& ctx);

  void stop() { active_ = false; }
  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] const KnowledgeView& view() const { return view_; }

  /// S_PD: the verified signed PDs collected so far (own PD included).
  [[nodiscard]] const std::vector<msg::SignedPd>& signed_pds() const {
    return spds_;
  }

  /// Number of GETPDS rounds initiated (metrics).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  void request_all(sim::Context& ctx);
  void arm_timer(sim::Context& ctx);

  ProcessId self_;
  IdSet own_pd_;
  SimTime period_;
  /// Bumped by restart(); stale timer fires are dropped. Stays 0 in
  /// fault-free runs, so the timer kind stays bit-identical to the
  /// pre-fault-timeline implementation.
  std::uint64_t timer_epoch_ = 0;
  KnowledgeView view_;
  std::vector<msg::SignedPd> spds_;
  /// The GETPDS request is identical every round: built once, shared.
  msg::MessageRef request_;
  /// The SETPDS answer is shared across requesters and rebuilt only when
  /// S_PD grows (null = stale).
  msg::MessageRef reply_cache_;
  /// Reused payload buffer for signature checks in the SETPDS merge loop —
  /// one allocation for the node's lifetime instead of one per verify.
  Bytes payload_scratch_;
  bool active_ = true;
  bool started_ = false;
  std::uint64_t rounds_ = 0;
};

}  // namespace bftcup::protocol
