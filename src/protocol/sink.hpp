// The Sink algorithm's termination condition (Algorithm 2, known f).
//
// Algorithm 2 = fork Discovery, then wait until ∃ S1 ⊆ S_received,
// S2 ⊆ S_known \ S1 with isSink(f, S1, S2). Nodes call try_find_sink after
// every knowledge change; a non-nullopt result is the returned sink
// (Theorem 4: S1 ∪ S2 contains all and only the sink members).
#pragma once

#include <optional>

#include "protocol/sink_search.hpp"

namespace bftcup::protocol {

/// The membership a Sink (Alg. 2) or Core (Alg. 4) evaluation settles on:
/// who runs consensus, and the threshold PBFT sizes its quorums by. The
/// witnessing split (S1, S2) is not kept: nothing past the search reads it,
/// and the eval memo stores one of these per evaluated view.
struct SinkResult {
  IdSet members;      ///< S1 ∪ S2
  std::size_t g = 0;  ///< witness threshold: f for Sink, f_Gdi for Core

  [[nodiscard]] std::size_t k() const { return g + 1; }
};

class SharedEvalCache;  // protocol/eval_cache.hpp

/// The first candidate of `search` at g = f, as a SinkResult. With a
/// `cache`, the per-simulation evaluation memo keyed by (strategy, f,
/// canonical view bytes) is consulted first, so nodes whose knowledge states
/// converged pay for the candidate search once; the result is a pure
/// function of the key, hence identical with the cache on, off or null.
[[nodiscard]] std::optional<SinkResult> try_find_sink(
    const KnowledgeView& view, std::size_t f, const SinkSearch& search,
    SharedEvalCache* cache = nullptr);

}  // namespace bftcup::protocol
