// The shared membership evaluation memo.
//
// One SharedEvalCache per simulation, shared by every correct node, maps
// (strategy, parameter, canonical view bytes) to the sink/core search
// outcome, so nodes whose knowledge states converge — the common case once
// discovery stabilizes — pay for the exponential search once. It stores a
// pure function of its key (see README "Membership engine caching" for the
// invariants), so results are identical with the memo on or off. The
// signature memo (crypto::SignCache) is the only other cache tier.
//
// Owned by one RunContext and therefore one thread.
#pragma once

#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/fnv.hpp"
#include "common/thread_annotations.hpp"
#include "protocol/sink.hpp"

namespace bftcup::protocol {

/// Writes the canonical serialization of the view's content (known set +
/// received PDs, in sorted order with length framing) into `out`, replacing
/// its contents. Serialization equality is view equality — the shared eval
/// cache keys on these bytes directly and compares byte-for-byte on lookup,
/// so a bucket-hash collision degrades to a memcmp, never to a wrong result
/// (and no cryptographic hashing is needed on this hot path at all).
void view_canonical(const KnowledgeView& view, Bytes& out);

/// The param of every Core key. f = 0 is a legal Sink key, so Core entries
/// take a value no f reaches, and both algorithms share one map.
inline constexpr std::uint64_t kCoreParam = ~std::uint64_t{0};

/// One entry key of the shared evaluation cache (owning form).
struct EvalKey {
  std::string strategy;     ///< SinkSearch::cache_key()
  std::uint64_t param = 0;  ///< f for the Sink algorithm; kCoreParam for Core
  Bytes view;               ///< view_canonical bytes

  friend bool operator==(const EvalKey&, const EvalKey&) = default;
};

/// Borrowed key for allocation-free probes.
struct EvalKeyView {
  std::string_view strategy;
  std::uint64_t param = 0;
  BytesView view;
};

struct EvalKeyHash {
  using is_transparent = void;

  /// FNV-1a (common/fnv.hpp). Bucketing only; equality is a byte compare.
  std::size_t operator()(const EvalKey& k) const {
    std::size_t h = fnv1a_mix(kFnvOffsetBasis, k.strategy.data(),
                              k.strategy.size());
    h = fnv1a_mix_u64(h, k.param);
    return fnv1a_mix(h, k.view.data(), k.view.size());
  }
  std::size_t operator()(const EvalKeyView& k) const {
    std::size_t h = fnv1a_mix(kFnvOffsetBasis, k.strategy.data(),
                              k.strategy.size());
    h = fnv1a_mix_u64(h, k.param);
    return fnv1a_mix(h, k.view.data(), k.view.size());
  }
};

struct EvalKeyEq {
  using is_transparent = void;

  bool operator()(const EvalKey& a, const EvalKey& b) const { return a == b; }
  bool operator()(const EvalKeyView& a, const EvalKey& b) const {
    return a.param == b.param && a.strategy == b.strategy &&
           a.view.size() == b.view.size() &&
           (a.view.empty() ||
            std::memcmp(a.view.data(), b.view.data(), a.view.size()) == 0);
  }
  bool operator()(const EvalKey& a, const EvalKeyView& b) const {
    return operator()(b, a);
  }
};

/// Per-simulation-thread evaluation memo; see file comment. With the memo
/// disabled it still counts evaluations, so reports can show search effort
/// either way; with it enabled, every evaluation consults it.
///
/// Results are pure functions of their content-addressed keys, so a
/// recycled run context keeps one SharedEvalCache across *all* of its runs:
/// the converged views of a topology family are identical from run to run
/// regardless of seed, which turns the exponential candidate search into a
/// lookup for the steady state of a batch sweep. Toggle per run with
/// set_memo_enabled; per-run counters are deltas against a stats snapshot.
class BFTCUP_THREAD_CONFINED SharedEvalCache {
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

  /// The memoized outcome for `key`, or nullptr if none is stored.
  [[nodiscard]] const std::optional<SinkResult>* find(
      const EvalKeyView& key) const;
  void store(const EvalKeyView& key, std::optional<SinkResult> result);

  /// Entries currently memoized (sink + core results).
  [[nodiscard]] std::size_t entry_count() const { return memo_.size(); }

  /// Drops every memoized result (the recycled engine's cap valve; never
  /// needed for soundness). Counters are kept.
  void clear_entries() { memo_.clear(); }

  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  bool memo_enabled_;
  std::unordered_map<EvalKey, std::optional<SinkResult>, EvalKeyHash,
                     EvalKeyEq>
      memo_;
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

  Bytes canon;
  view_canonical(view, canon);
  const EvalKeyView key{search.cache_key(), param, canon};
  if (const auto* hit = cache->find(key)) {
    ++cache->stats().hits;
    return *hit;
  }
  std::optional<SinkResult> result = cold();
  cache->store(key, result);
  return result;
}

}  // namespace bftcup::protocol
