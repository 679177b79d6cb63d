#include "sim/network.hpp"

#include <algorithm>

namespace bftcup::sim {

SimTime synchrony_cap(SimTime sent, const NetConfig& cfg) {
  // The paper's clamp: delivery by max(t, GST) + δ. A message sent exactly
  // at GST is a post-GST message (cap = GST + δ). Saturating adds: an
  // "asynchronous" run uses gst near kSimTimeMax.
  const SimTime base = std::max(sent, cfg.gst);
  const SimTime capped =
      base > kSimTimeMax - cfg.delta ? kSimTimeMax : base + cfg.delta;
  // The cap never undercuts the one-tick floor, so a policy that clamps to
  // it cannot deliver a message at its send instant either.
  const SimTime floor = sent == kSimTimeMax ? kSimTimeMax : sent + 1;
  return std::max(capped, floor);
}

SimTime RandomDelayPolicy::delivery_time(ProcessId /*from*/, ProcessId /*to*/,
                                         SimTime sent, Rng& rng,
                                         const NetConfig& cfg) {
  const SimTime hi = synchrony_cap(sent, cfg);  // >= sent + 1
  if (sent >= cfg.gst) {
    // After GST: within δ, and never before the floor (δ >= 1).
    return std::min(hi, sent + rng.next_in(1, cfg.delta));
  }
  // Before GST: adversarial draw over the allowed window.
  return rng.next_in(sent + 1, hi);
}

GroupStretchPolicy::GroupStretchPolicy(std::unique_ptr<DelayPolicy> inner,
                                       IdSet group_a, IdSet group_b,
                                       SimTime release_at)
    : inner_(std::move(inner)),
      group_a_(std::move(group_a)),
      group_b_(std::move(group_b)),
      release_at_(release_at) {}

SimTime GroupStretchPolicy::delivery_time(ProcessId from, ProcessId to,
                                          SimTime sent, Rng& rng,
                                          const NetConfig& cfg) {
  const SimTime base = inner_->delivery_time(from, to, sent, rng, cfg);
  const bool crosses = (group_a_.contains(from) && group_b_.contains(to)) ||
                       (group_b_.contains(from) && group_a_.contains(to));
  if (!crosses) return base;
  return std::min(std::max(base, release_at_), synchrony_cap(sent, cfg));
}

SlowSenderPolicy::SlowSenderPolicy(std::unique_ptr<DelayPolicy> inner,
                                   IdSet slow, SimTime release_at)
    : inner_(std::move(inner)),
      slow_(std::move(slow)),
      release_at_(release_at) {}

SimTime SlowSenderPolicy::delivery_time(ProcessId from, ProcessId to,
                                        SimTime sent, Rng& rng,
                                        const NetConfig& cfg) {
  const SimTime base = inner_->delivery_time(from, to, sent, rng, cfg);
  if (!slow_.contains(from)) return base;
  return std::min(std::max(base, release_at_), synchrony_cap(sent, cfg));
}

bool LossConfig::in_burst(SimTime t) const {
  if (burst_len == 0 || t < burst_start) return false;
  const SimTime offset = t - burst_start;
  if (burst_period == 0) return offset < burst_len;
  return offset % burst_period < burst_len;
}

}  // namespace bftcup::sim
