// Partial-synchrony delivery scheduling (paper §II-A).
//
// Channels are reliable and authenticated: every sent message is delivered
// exactly once, and the receiver learns the true sender. The adversary
// controls *when*, subject to partial synchrony: a message sent at time t is
// delivered by max(t, GST) + δ. Before GST the delay is arbitrary within
// that cap; after GST it is at most δ.
//
// LossyDelayPolicy deliberately breaks the reliable-channel premise: it is a
// fault model (hostile-wire PR), not a paper assumption. Runs under it are
// outside Theorem 1's hypotheses, so the oracle treats liveness differently
// when it is active — safety, however, must still hold.
#pragma once

#include <memory>

#include "common/random.hpp"
#include "common/types.hpp"

namespace bftcup::sim {

struct NetConfig {
  SimTime gst = 0;       ///< global stabilization time
  SimTime delta = 10;    ///< post-GST delay bound δ
  SimTime min_delay = 1; ///< messages never arrive at their send instant
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

  /// Asked once per send, before delivery_time. A true return drops the
  /// message on the floor (counted, never delivered). The default neither
  /// drops nor touches `rng` — existing policies keep their exact draw
  /// sequence, so every pre-existing digest is unchanged.
  [[nodiscard]] virtual bool should_drop(ProcessId /*from*/, ProcessId /*to*/,
                                         SimTime /*sent*/, Rng& /*rng*/,
                                         const NetConfig& /*cfg*/) {
    return false;
  }
};

/// Uniform random delay in [min_delay, δ] after GST; before GST, an
/// adversarial uniform draw over the whole allowed window.
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

/// Knobs for the lossy-network fault model. All probabilities are in [0, 1].
struct LossConfig {
  bool enabled = false;
  /// Baseline per-message drop probability (outside burst windows).
  double drop_p = 0.0;
  /// Extra uniform delay in [0, jitter] added to the inner policy's delivery
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
};

/// Wraps another policy with seeded message loss and jitter (LossConfig).
/// Deterministic: drop/jitter draws come from the simulator RNG in send
/// order, so the loss schedule is a pure function of (scenario, seed). With
/// all knobs at their zero defaults the wrapper draws nothing and is
/// bit-transparent.
class LossyDelayPolicy final : public DelayPolicy {
 public:
  LossyDelayPolicy(std::unique_ptr<DelayPolicy> inner, LossConfig config);

  [[nodiscard]] SimTime delivery_time(ProcessId from, ProcessId to,
                                      SimTime sent, Rng& rng,
                                      const NetConfig& cfg) override;

  [[nodiscard]] bool should_drop(ProcessId from, ProcessId to, SimTime sent,
                                 Rng& rng, const NetConfig& cfg) override;

 private:
  [[nodiscard]] bool in_burst(SimTime t) const;

  std::unique_ptr<DelayPolicy> inner_;
  LossConfig config_;
};

/// Clamp helper shared by policies: the partial-synchrony delivery cap
/// max(sent, GST) + δ, never below the physical floor sent + min_delay.
/// A message sent exactly at GST is post-GST: its cap is GST + δ. When
/// min_delay > δ the configuration is over-constrained and the floor wins —
/// policies clamping to this cap therefore still honor min_delay.
[[nodiscard]] SimTime synchrony_cap(SimTime sent, const NetConfig& cfg);

}  // namespace bftcup::sim
