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
  // The cap never undercuts the physical floor sent + min_delay: when a
  // channel is configured with min_delay > δ, the floor wins and the
  // message is delivered at exactly its floor (enforced here so wrapping
  // policies that clamp to the cap cannot deliver before the floor either).
  const SimTime floor =
      sent > kSimTimeMax - cfg.min_delay ? kSimTimeMax : sent + cfg.min_delay;
  return std::max(capped, floor);
}

SimTime RandomDelayPolicy::delivery_time(ProcessId /*from*/, ProcessId /*to*/,
                                         SimTime sent, Rng& rng,
                                         const NetConfig& cfg) {
  const SimTime lo = sent + cfg.min_delay;
  const SimTime hi = synchrony_cap(sent, cfg);  // >= lo by construction
  if (sent >= cfg.gst) {
    // After GST: within δ (clamped to [lo, hi] when min_delay > δ).
    return std::min(hi, sent + std::max<SimTime>(cfg.min_delay,
                                                 rng.next_in(1, cfg.delta)));
  }
  // Before GST: adversarial draw over the allowed window.
  return rng.next_in(lo, hi);
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

LossyDelayPolicy::LossyDelayPolicy(std::unique_ptr<DelayPolicy> inner,
                                   LossConfig config)
    : inner_(std::move(inner)), config_(config) {}

bool LossyDelayPolicy::in_burst(SimTime t) const {
  if (config_.burst_len == 0 || t < config_.burst_start) return false;
  const SimTime offset = t - config_.burst_start;
  if (config_.burst_period == 0) return offset < config_.burst_len;
  return offset % config_.burst_period < config_.burst_len;
}

SimTime LossyDelayPolicy::delivery_time(ProcessId from, ProcessId to,
                                        SimTime sent, Rng& rng,
                                        const NetConfig& cfg) {
  const SimTime base = inner_->delivery_time(from, to, sent, rng, cfg);
  if (config_.jitter == 0) return base;  // no draw: zero jitter is free
  const SimTime extra = rng.next_below(config_.jitter + 1);
  const SimTime jittered =
      base > kSimTimeMax - extra ? kSimTimeMax : base + extra;
  return std::min(jittered, synchrony_cap(sent, cfg));
}

bool LossyDelayPolicy::should_drop(ProcessId /*from*/, ProcessId /*to*/,
                                   SimTime sent, Rng& rng,
                                   const NetConfig& /*cfg*/) {
  // Neither a burst nor a zero drop_p draws (Rng::chance decides p <= 0 and
  // p >= 1 without one), so an all-zero config is transparent.
  return in_burst(sent) || rng.chance(config_.drop_p);
}

}  // namespace bftcup::sim
