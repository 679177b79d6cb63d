#include "protocol/core.hpp"

#include "protocol/eval_cache.hpp"

namespace bftcup::protocol {
namespace {

std::optional<SinkResult> strict_maximum(
    const std::vector<SinkCandidate>& candidates) {
  // The connectivity maximum: the top witness g (= f_Gdi within current
  // knowledge) over every candidate...
  const SinkCandidate* best = nullptr;
  for (const SinkCandidate& c : candidates) {
    if (best == nullptr || c.g > best->g) best = &c;
  }
  if (best == nullptr) return std::nullopt;

  // ... must be strict (property C1): a second member set at the top g
  // means this knowledge cannot yet distinguish the core, so keep waiting.
  SinkResult core{best->members(), best->g};
  for (const SinkCandidate& c : candidates) {
    if (c.g == core.g && c.members() != core.members) return std::nullopt;
  }
  return core;
}

}  // namespace

std::optional<SinkResult> try_find_core(const KnowledgeView& view,
                                        const SinkSearch& search,
                                        SharedEvalCache* cache) {
  return memoized(cache, view, search, kCoreParam,
                  [&] { return strict_maximum(search.candidates(view)); });
}

}  // namespace bftcup::protocol
