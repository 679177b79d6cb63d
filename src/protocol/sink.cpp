#include "protocol/sink.hpp"

#include "protocol/eval_cache.hpp"

namespace bftcup::protocol {

std::optional<SinkResult> try_find_sink(const KnowledgeView& view,
                                        std::size_t f,
                                        const SinkSearch& search) {
  for (const SinkCandidate& c : search.candidates(view)) {
    if (c.g != f) continue;  // Alg. 2 line 3 instantiates the predicate at f
    SinkResult result;
    result.members = c.members();
    result.s1 = c.s1;
    result.s2 = c.s2;
    return result;
  }
  return std::nullopt;
}

std::optional<SinkResult> try_find_sink(const KnowledgeView& view,
                                        std::size_t f, const SinkSearch& search,
                                        SharedEvalCache* cache) {
  if (cache == nullptr) return try_find_sink(view, f, search);
  ++cache->stats().evaluations;
  if (!cache->memo_enabled()) return try_find_sink(view, f, search);

  Bytes canon;
  view_canonical(view, canon);
  const EvalKeyView key{search.cache_key(), f, canon};
  if (const auto* hit = cache->find_sink(key)) {
    ++cache->stats().hits;
    return *hit;
  }
  std::optional<SinkResult> result = try_find_sink(view, f, search);
  cache->store_sink(key, result);
  return result;
}

}  // namespace bftcup::protocol
