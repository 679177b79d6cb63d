#include "protocol/sink.hpp"

#include "protocol/eval_cache.hpp"

namespace bftcup::protocol {

std::optional<SinkResult> try_find_sink(const KnowledgeView& view,
                                        std::size_t f, const SinkSearch& search,
                                        SharedEvalCache* cache) {
  return memoized(cache, view, search, f, [&]() -> std::optional<SinkResult> {
    for (const SinkCandidate& c : search.candidates(view)) {
      // Alg. 2 line 3 instantiates the predicate at f.
      if (c.g == f) return SinkResult{c.members(), c.g};
    }
    return std::nullopt;
  });
}

}  // namespace bftcup::protocol
