// The Core algorithm's termination condition (Algorithm 4, unknown f).
//
// Per Theorem 8 (which fixes the g/g' typo in Algorithm 4 line 2), a
// candidate set V is the core iff (a) isSink*(V) holds and (b) no proper
// subset of V passes isSink* with connectivity >= k_Gdi(V). Operationally
// (property C1) we additionally require the candidate to be the *strict*
// connectivity maximum among every sink-candidate derivable from current
// knowledge: settling early on a lower-connectivity sink the process
// happened to discover first is exactly the mistake the extended model
// exists to prevent. CoreAlgorithmTest's tie cases (Fig2cTieNeverResolves,
// Fig3aSafeViewTiesAndNeverResolves) pin this rule.
//
// The strict maximum also settles (b) within the candidate family (exact
// for the exhaustive strategy): every candidate at the top g names V, and
// every other member set, proper subsets of V included, sits strictly
// below k_Gdi(V). So the rule needs only the top g and one member set, not
// a per-set aggregate.
#pragma once

#include <optional>

#include "protocol/sink.hpp"

namespace bftcup::protocol {

/// The core as a SinkResult: members = V_core, g = f_Gdi(V_core) (the
/// maximal witness threshold). Nothing on a tie: two member sets at the top
/// g. With a `cache`, memoized under (strategy, kCoreParam, canonical view
/// bytes) like try_find_sink.
[[nodiscard]] std::optional<SinkResult> try_find_core(
    const KnowledgeView& view, const SinkSearch& search,
    SharedEvalCache* cache = nullptr);

}  // namespace bftcup::protocol
