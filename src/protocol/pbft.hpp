// Single-shot signed PBFT-style consensus among a fixed member set.
//
// Algorithm 3 line 4 delegates to "a traditional consensus protocol (e.g.,
// PBFT)" run by the sink/core members. This is that protocol: three phases
// (PRE-PREPARE / PREPARE / COMMIT) plus a view-change sub-protocol, all
// messages signed. Single-shot, so no sequence numbers, checkpoints, or log
// truncation.
//
// Quorums follow the paper (§II-C, citing [11]): a quorum must include at
// least ⌈(|S| + f + 1)/2⌉ members, where S is the discovered sink/core and
// f the (known or discovered) fault threshold. Any two quorums intersect in
// a correct process, and with |S| >= 2f+1 correct members quorums are live.
//
// View-change simplification: NEW-VIEW carries the highest PREPARE
// certificate the new leader collected; a replica that prepared (v, x)
// refuses a conflicting value justified by a certificate older than v. This
// preserves the commit-intersection safety argument for the single-shot
// case without shipping full view-change proofs.
#pragma once

#include <map>
#include <optional>

#include "sim/process.hpp"

namespace bftcup::protocol {

class PbftInstance {
 public:
  /// Timer kind used for view timeouts.
  static constexpr int kTimerKind = 2;

  struct Config {
    IdSet members;
    std::size_t assumed_f = 0;    ///< threshold used for quorum sizing
    SimTime base_timeout = 400;   ///< view-0 timeout; doubles per view
  };

  PbftInstance(ProcessId self, Config config);

  /// Proposes `value` and starts view 0.
  void start(Value value, sim::Context& ctx);

  /// Handles PBFT message types; returns true if the message was consumed.
  bool handle_message(ProcessId from, const msg::Message& message,
                      sim::Context& ctx);

  /// View timer; re-arms via view changes until a decision is reached.
  void on_timer(int kind, sim::Context& ctx);

  /// Re-arms the current view's timeout after a crash/recovery dropped it
  /// (timers addressed to a downed process lapse; see FaultTimeline).
  void rearm_view_timer(sim::Context& ctx);

  [[nodiscard]] bool decided() const { return decided_.has_value(); }
  [[nodiscard]] Value decision() const { return *decided_; }
  [[nodiscard]] std::uint32_t view() const { return view_; }
  [[nodiscard]] std::size_t quorum() const { return quorum_; }

 private:
  struct VoteSet {
    // value -> (sender -> signature share). Values are tracked separately:
    // a Byzantine leader may equivocate.
    std::map<Value, std::map<ProcessId, crypto::Signature>> by_value;
  };

  [[nodiscard]] ProcessId leader_of(std::uint32_t view) const;
  [[nodiscard]] bool is_member(ProcessId id) const {
    return config_.members.contains(id);
  }

  void enter_view(std::uint32_t view, sim::Context& ctx);
  void arm_view_timer(std::uint32_t view, sim::Context& ctx);
  void broadcast_phase(msg::MsgType phase, std::uint32_t view, Value value,
                       sim::Context& ctx);
  void record_vote(msg::MsgType phase, std::uint32_t view, Value value,
                   ProcessId from, const crypto::Signature& sig,
                   sim::Context& ctx);
  void maybe_progress(std::uint32_t view, Value value, sim::Context& ctx);
  void start_view_change(std::uint32_t target_view, sim::Context& ctx);
  void maybe_assume_leadership(std::uint32_t view, sim::Context& ctx);
  [[nodiscard]] bool verify_cert(const msg::QuorumCert& cert,
                                 msg::MsgType phase, sim::Context& ctx) const;
  void decide_with_cert(Value value, msg::QuorumCert cert, sim::Context& ctx);

  ProcessId self_;
  Config config_;
  std::size_t quorum_ = 0;

  Value proposal_ = kNoValue;
  std::uint32_t view_ = 0;
  std::uint32_t highest_requested_ = 0;  ///< highest view we asked for
  bool started_ = false;
  std::uint64_t timer_epoch_ = 0;  ///< invalidates stale timers

  // Per (view): accepted pre-prepare value.
  std::map<std::uint32_t, Value> preprepared_;
  std::map<std::uint32_t, VoteSet> prepares_;
  std::map<std::uint32_t, VoteSet> commits_;
  std::map<std::uint32_t, bool> prepare_sent_;
  std::map<std::uint32_t, bool> commit_sent_;

  /// Highest certificate this replica assembled from q PREPAREs.
  std::optional<msg::QuorumCert> prepared_cert_;

  // View-change bookkeeping: target view -> sender -> carried certificate.
  std::map<std::uint32_t, std::map<ProcessId, std::optional<msg::QuorumCert>>>
      view_changes_;
  std::map<std::uint32_t, bool> view_change_sent_;
  std::map<std::uint32_t, bool> new_view_sent_;

  std::optional<Value> decided_;
  std::optional<msg::QuorumCert> decide_cert_;
};

}  // namespace bftcup::protocol
