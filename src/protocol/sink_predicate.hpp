// The isSink predicate (Theorem 3 / Algorithm 2 line 1) and its unknown-f
// closure isSink* (Section V).
//
// Erratum handling: Algorithm 2 as printed checks `S1 ≤f→ S_known \ S1`,
// which is contradicted by the paper's own worked example (Fig. 1b,
// S1={1,3,4}, S2={2}, f=1: two members of S1 point to 2). We implement the
// reading consistent with Theorem 3's proof and the example: S2 is computed
// first (P4), then at most f members of S1 may have out-edges escaping
// S1 ∪ S2 (P3). IsSinkTest.Fig1bScenarioFromSectionIII pins the example.
#pragma once

#include <optional>

#include "protocol/knowledge_view.hpp"

namespace bftcup::protocol {

/// Evaluates isSink(f, S1, ·) against `view`, deriving S2.
/// Returns the derived S2 when all of Theorem 3's properties hold:
///   P1: |S1| >= 2f+1 and S1 ⊆ S_received,
///   P2: κ(K[S1]) >= f+1,
///   P4: S2 = { j ∈ S_known \ S1 : |{i ∈ S1 : j ∈ PD_i}| > f },
///   P3: |{i ∈ S1 : PD_i escapes S1 ∪ S2}| <= f.
/// Returns nullopt otherwise. Evaluated as the g = f split of
/// admissible_thresholds — the code path the search runs.
[[nodiscard]] std::optional<IdSet> is_sink(const KnowledgeView& view,
                                           std::size_t f, const IdSet& s1);

/// The paper's exact signature: isSink(f, S1, S2) — true iff the derived S2
/// equals the given one and all properties hold.
[[nodiscard]] bool is_sink(const KnowledgeView& view, std::size_t f,
                           const IdSet& s1, const IdSet& s2);

/// isSink*(S) (Section V): true iff ∃g >= 0 and a split S = S1 ∪ S2 with
/// isSink(g, S1, S2). Returns f_Gdi(S) — the *maximum* such g — or nullopt.
/// k_Gdi(S) is then f_Gdi(S) + 1.
///
/// Exhaustive over S1 ⊆ S ∩ S_received; |S ∩ S_received| must be <= 24
/// (asserted) — ample for sink components, which are small by design.
[[nodiscard]] std::optional<std::size_t> is_sink_star(
    const KnowledgeView& view, const IdSet& s);

/// All admissible fault thresholds g for a fixed S1 (ascending), with the S2
/// derived for each. Shared by the search strategies: for one S1, κ is
/// computed once and every g in [0, κ-1] is tested cheaply.
struct AdmissibleSplit {
  std::size_t g;
  IdSet s2;

  friend bool operator==(const AdmissibleSplit&,
                         const AdmissibleSplit&) = default;
};
[[nodiscard]] std::vector<AdmissibleSplit> admissible_thresholds(
    const KnowledgeView& view, const IdSet& s1);

}  // namespace bftcup::protocol
