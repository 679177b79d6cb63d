#include "protocol/core.hpp"

#include <map>

#include "protocol/eval_cache.hpp"

namespace bftcup::protocol {

std::optional<SinkResult> try_find_core(const KnowledgeView& view,
                                        const SinkSearch& search) {
  const std::vector<SinkCandidate> candidates = search.candidates(view);
  if (candidates.empty()) return std::nullopt;

  // Aggregate: per member-set, the maximal witness g (= f_Gdi within current
  // knowledge) and a witnessing split.
  struct Entry {
    std::size_t g = 0;
    const SinkCandidate* witness = nullptr;
  };
  std::map<IdSet, Entry> sinks;
  for (const SinkCandidate& c : candidates) {
    Entry& e = sinks[c.members()];
    if (e.witness == nullptr || c.g > e.g) {
      e.g = c.g;
      e.witness = &c;
    }
  }

  // The connectivity maximum...
  auto best = sinks.begin();
  for (auto it = sinks.begin(); it != sinks.end(); ++it) {
    if (it->second.g > best->second.g) best = it;
  }
  const std::size_t best_g = best->second.g;

  // ... must be strict (property C1): a tie means this knowledge cannot yet
  // distinguish the core, so keep waiting.
  for (auto it = sinks.begin(); it != sinks.end(); ++it) {
    if (it != best && it->second.g == best_g) return std::nullopt;
  }

  // Theorem 8(b): no proper subset passes isSink* with k >= k(candidate).
  // (Within the candidate family; the exhaustive strategy makes this exact.)
  for (auto it = sinks.begin(); it != sinks.end(); ++it) {
    if (it == best) continue;
    if (it->second.g >= best_g && it->first.is_subset_of(best->first) &&
        it->first.size() < best->first.size()) {
      return std::nullopt;
    }
  }

  SinkResult result;
  result.members = best->first;
  result.g = best_g;
  result.s1 = best->second.witness->s1;
  result.s2 = best->second.witness->s2;
  return result;
}

std::optional<SinkResult> try_find_core(const KnowledgeView& view,
                                        const SinkSearch& search,
                                        SharedEvalCache* cache) {
  return memoized(cache, view, search, kCoreParam,
                  [&] { return try_find_core(view, search); });
}

}  // namespace bftcup::protocol
