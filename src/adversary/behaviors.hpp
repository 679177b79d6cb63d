// Byzantine process behaviors for fault-injection runs.
//
// The adversary is static (§II-A): faulty processes are fixed up front, may
// know the whole membership Π and may coordinate, but cannot forge other
// processes' signatures (they only hold their own Signer).
#pragma once

#include <optional>

#include "protocol/discovery.hpp"
#include "sim/process.hpp"

namespace bftcup::adversary {

/// Never sends anything. (Scenario I of Section III: Byzantine sink members
/// remain silent.)
class SilentNode final : public sim::Process {
 public:
  explicit SilentNode(ProcessId id) : sim::Process(id) {}
  void on_start(sim::Context&) override {}
  void on_message(ProcessId, const msg::Message&, sim::Context&) override {}
};

/// Configuration for the active Byzantine node.
struct ByzantineConfig {
  /// PD advertised in discovery. The node signs it itself (it may lie about
  /// its own PD — that is allowed; it cannot lie about others'). Moves into
  /// the node's Discovery, which holds its one copy.
  IdSet advertised_pd;
  /// Answer GETDECIDEDVAL with this bogus value.
  std::optional<Value> wrong_decided_value;
  /// Equivocate in PBFT: as leader (or impostor) send conflicting
  /// pre-prepares/prepares/commits for `value_a`/`value_b` to the two halves
  /// of `consensus_members`. The adversary knows Π, so the member set is
  /// handed to it by the harness.
  bool equivocate_consensus = false;
  IdSet consensus_members;
  Value value_a = 0;
  Value value_b = 1;
};

/// An actively malicious participant: takes part in discovery (possibly
/// with a fake PD), optionally equivocates in consensus and serves wrong
/// decided values. Crashing it is the fault timeline's job.
class ByzantineNode final : public sim::Process {
 public:
  ByzantineNode(ProcessId id, ByzantineConfig config);

  void on_start(sim::Context& ctx) override;
  void on_message(ProcessId from, const msg::Message& message,
                  sim::Context& ctx) override;
  void on_timer(int kind, sim::Context& ctx) override;

 private:
  void equivocate(sim::Context& ctx);

  /// Algorithm 1's S_PD with the advertised PD as its own: answers GETPDS
  /// and merges SETPDS like a correct node, but never polls. Declared
  /// before config_, so it takes the advertised PD before config_ is
  /// moved in.
  protocol::Discovery discovery_;
  ByzantineConfig config_;
  bool equivocated_ = false;
};

}  // namespace bftcup::adversary
