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
    result.g = c.g;
    result.s1 = c.s1;
    result.s2 = c.s2;
    return result;
  }
  return std::nullopt;
}

std::optional<SinkResult> try_find_sink(const KnowledgeView& view,
                                        std::size_t f, const SinkSearch& search,
                                        SharedEvalCache* cache) {
  return memoized(cache, view, search, f,
                  [&] { return try_find_sink(view, f, search); });
}

}  // namespace bftcup::protocol
