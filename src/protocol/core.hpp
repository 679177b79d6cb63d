// The Core algorithm's termination condition (Algorithm 4, unknown f).
//
// Per Theorem 8 (which fixes the g/g' typo in Algorithm 4 line 2), a
// candidate set V is the core iff isSink*(V) holds and no proper subset of V
// passes isSink* with connectivity >= k_Gdi(V). Operationally (property C1)
// we additionally require the candidate to be the *strict* connectivity
// maximum among every sink-candidate derivable from current knowledge:
// settling early on a lower-connectivity sink the process happened to
// discover first is exactly the mistake the extended model exists to
// prevent. CoreAlgorithmTest's tie cases (Fig2cTieNeverResolves,
// Fig3aSafeViewTiesAndNeverResolves) pin this rule.
#pragma once

#include <optional>

#include "protocol/sink.hpp"

namespace bftcup::protocol {

/// The core as a SinkResult: members = V_core, g = f_Gdi(V_core) (the
/// maximal witness threshold), s1/s2 a witnessing split.
[[nodiscard]] std::optional<SinkResult> try_find_core(const KnowledgeView& view,
                                                      const SinkSearch& search);

/// Memoized variant keyed by (strategy, kCoreParam, canonical view bytes) in
/// the per-simulation evaluation cache; see try_find_sink's cached overload.
[[nodiscard]] std::optional<SinkResult> try_find_core(const KnowledgeView& view,
                                                      const SinkSearch& search,
                                                      SharedEvalCache* cache);

}  // namespace bftcup::protocol
