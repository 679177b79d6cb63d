// Partial-synchrony delivery scheduling (paper §II-A).
//
// Channels are reliable and authenticated: every sent message is delivered
// exactly once, and the receiver learns the true sender. The adversary
// controls *when*, subject to partial synchrony: a message sent at time t is
// delivered by max(t, GST) + δ, and never before t + 1. Before GST the delay
// is arbitrary within that cap; after GST it is at most δ. A DelayPolicy
// chooses each delivery time and nothing else.
//
// LossConfig deliberately breaks the reliable-channel premise: it is a fault
// model, not a paper assumption, and the simulator applies it next to the
// wire mutator (Simulator::Options::loss). Runs under it are outside
// Theorem 1's hypotheses, so the oracle treats liveness differently when it
// is active — safety, however, must still hold.
#pragma once

#include <memory>

#include "common/random.hpp"
#include "common/types.hpp"

namespace bftcup::sim {

struct NetConfig {
  SimTime gst = 0;     ///< global stabilization time
  SimTime delta = 10;  ///< post-GST delay bound δ
};

/// Strategy deciding each message's delivery time. Implementations must
/// respect the partial-synchrony cap unless they explicitly model
/// asynchrony (Table I's third row).
class DelayPolicy {
 public:
  virtual ~DelayPolicy() = default;

  [[nodiscard]] virtual SimTime delivery_time(ProcessId from, ProcessId to,
                                              SimTime sent, Rng& rng,
                                              const NetConfig& cfg) = 0;
};

/// Uniform random delay in [1, δ] after GST; before GST, an adversarial
/// uniform draw over the whole allowed window.
class RandomDelayPolicy final : public DelayPolicy {
 public:
  [[nodiscard]] SimTime delivery_time(ProcessId from, ProcessId to,
                                      SimTime sent, Rng& rng,
                                      const NetConfig& cfg) override;
};

/// Wraps another policy and stretches messages crossing between two process
/// groups until `release_at` (still capped by partial synchrony). This is
/// the scheduler used in Theorem 7's system AB: intra-group traffic is fast,
/// inter-group traffic arrives "after max{tA+ΔA, tB+ΔB}".
class GroupStretchPolicy final : public DelayPolicy {
 public:
  GroupStretchPolicy(std::unique_ptr<DelayPolicy> inner, IdSet group_a,
                     IdSet group_b, SimTime release_at);

  [[nodiscard]] SimTime delivery_time(ProcessId from, ProcessId to,
                                      SimTime sent, Rng& rng,
                                      const NetConfig& cfg) override;

 private:
  std::unique_ptr<DelayPolicy> inner_;
  IdSet group_a_;
  IdSet group_b_;
  SimTime release_at_;
};

/// Stretches every message *sent by* one of `slow` until `release_at`
/// (capped by partial synchrony). Models slow-but-correct processes in the
/// indistinguishability scenarios.
class SlowSenderPolicy final : public DelayPolicy {
 public:
  SlowSenderPolicy(std::unique_ptr<DelayPolicy> inner, IdSet slow,
                   SimTime release_at);

  [[nodiscard]] SimTime delivery_time(ProcessId from, ProcessId to,
                                      SimTime sent, Rng& rng,
                                      const NetConfig& cfg) override;

 private:
  std::unique_ptr<DelayPolicy> inner_;
  IdSet slow_;
  SimTime release_at_;
};

/// Knobs for the lossy-network fault model, which the simulator applies to
/// every send (Simulator::do_send). All-zero, the default, draws nothing
/// and drops nothing. Draws come from the simulator RNG in send order, so
/// the loss schedule is a pure function of (scenario, seed).
struct LossConfig {
  /// Baseline per-message drop probability in [0, 1] (outside bursts).
  double drop_p = 0.0;
  /// Extra uniform delay in [0, jitter] added to the policy's delivery
  /// time, clamped back to the partial-synchrony cap: delayed messages still
  /// obey δ; the loss model breaks reliability, not synchrony.
  SimTime jitter = 0;
  /// Burst loss windows: [burst_start + k*burst_period,
  /// burst_start + k*burst_period + burst_len) for k = 0, 1, ... — a single
  /// window when burst_period is 0. Every send inside one drops. A
  /// burst_len of 0 disables bursts.
  SimTime burst_start = 0;
  SimTime burst_len = 0;
  SimTime burst_period = 0;

  /// True iff a send at `t` falls inside a burst window.
  [[nodiscard]] bool in_burst(SimTime t) const;
};

/// Clamp helper shared by policies: the partial-synchrony delivery cap
/// max(sent, GST) + δ, never below the one-tick floor sent + 1. A message
/// sent exactly at GST is post-GST: its cap is GST + δ.
[[nodiscard]] SimTime synchrony_cap(SimTime sent, const NetConfig& cfg);

}  // namespace bftcup::sim
