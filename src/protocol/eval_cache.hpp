// The shared membership evaluation memo.
//
// One SharedEvalCache per simulation, shared by every correct node, maps
// (strategy, parameter, canonical view bytes) to the sink/core search
// outcome, so nodes whose knowledge states converge — the common case once
// discovery stabilizes — pay for the exponential search once. It stores a
// pure function of its key (see README "Membership engine caching" for the
// invariants), so results are identical with the memo on or off. It is one
// of the engine's two ContentMemo instances (common/content_memo.hpp); the
// signature memo (crypto::SignCache) is the other. It is the only memo a
// recycled RunContext keeps between runs: views repeat across seeds, while
// the signature memo belongs to one run's key registry.
//
// Owned by one RunContext and therefore one thread.
#pragma once

#include <optional>
#include <string_view>

#include "common/bytes.hpp"
#include "common/content_memo.hpp"
#include "common/thread_annotations.hpp"
#include "obs/span_tracer.hpp"
#include "protocol/sink.hpp"

namespace bftcup::protocol {

/// `prefix`, then the canonical serialization of the view's content (known
/// set + received PDs, in sorted order with length framing), in one buffer
/// of the final size. Serialization equality is view equality — the shared
/// eval cache keys on these bytes directly (after the strategy key as
/// prefix) and compares byte-for-byte on lookup, so a bucket-hash collision
/// degrades to a memcmp, never to a wrong result (and no cryptographic
/// hashing is needed on this hot path at all).
[[nodiscard]] Bytes view_canonical(const KnowledgeView& view,
                                   std::string_view prefix);

/// The param of every Core key. f = 0 is a legal Sink key, so Core entries
/// take a value no f reaches, and both algorithms share one map.
inline constexpr std::uint64_t kCoreParam = ~std::uint64_t{0};

/// Per-simulation-thread evaluation memo; see file comment. Each entry is
/// keyed (param, strategy key length, strategy key ++ view_canonical bytes):
/// the length word keeps two strategies whose keys prefix one another
/// apart. With the memo disabled it still counts evaluations, so reports
/// can show search effort either way; with it enabled, every evaluation
/// consults it.
///
/// Results are pure functions of their content-addressed keys, so a
/// recycled run context keeps one SharedEvalCache across *all* of its runs:
/// the converged views of a topology family are identical from run to run
/// regardless of seed, which turns the exponential candidate search into a
/// lookup for the steady state of a batch sweep. Toggle per run with
/// set_memo_enabled; per-run counters are deltas against a stats snapshot,
/// and clear() (the cap valve) keeps them.
class BFTCUP_THREAD_CONFINED SharedEvalCache
    : public ContentMemo<std::optional<SinkResult>> {
 public:
  struct Stats {
    std::uint64_t evaluations = 0;  ///< membership evaluations requested
    std::uint64_t hits = 0;         ///< served from the memo
  };

  explicit SharedEvalCache(bool memo_enabled = true)
      : memo_enabled_(memo_enabled) {}

  [[nodiscard]] bool memo_enabled() const { return memo_enabled_; }

  /// Per-run toggle for a recycled cache (ScenarioBuilder::eval_cache).
  /// Retained entries are simply not consulted while disabled.
  void set_memo_enabled(bool enabled) { memo_enabled_ = enabled; }

  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  bool memo_enabled_;
  Stats stats_;
};

/// The memo wrapper of try_find_sink and try_find_core: counts the
/// evaluation, then, with the memo on, answers from the entry for
/// (search.cache_key(), param, view) or runs `cold` and stores its result.
/// `cache == nullptr` runs `cold` alone.
template <typename Cold>
std::optional<SinkResult> memoized(SharedEvalCache* cache,
                                   const KnowledgeView& view,
                                   const SinkSearch& search,
                                   std::uint64_t param, const Cold& cold) {
  if (cache == nullptr) return cold();
  ++cache->stats().evaluations;
  if (!cache->memo_enabled()) return cold();

  const std::string& strategy = search.cache_key();
  const Bytes key = view_canonical(view, strategy);
  // The cache is thread-confined, so the probe runs on the run thread and
  // the span stream is replay-stable at a fixed knob setting.
  const auto* hit = [&] {
    const obs::ScopedSpan span("eval.cache_probe");
    return cache->find(param, strategy.size(), key);
  }();
  if (hit != nullptr) {
    ++cache->stats().hits;
    return *hit;
  }
  return cache->insert(param, strategy.size(), key, cold());
}

}  // namespace bftcup::protocol
