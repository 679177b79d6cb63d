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

#include <cstdint>
#include <optional>
#include <vector>

#include "protocol/knowledge_view.hpp"

namespace bftcup::protocol {

/// Evaluates isSink(f, S1, ·) against `view`, deriving S2.
/// Returns the derived S2 when all of Theorem 3's properties hold:
///   P1: |S1| >= 2f+1 and S1 ⊆ S_received,
///   P2: κ(K[S1]) >= f+1,
///   P4: S2 = { j ∈ S_known \ S1 : |{i ∈ S1 : j ∈ PD_i}| > f },
///   P3: |{i ∈ S1 : PD_i escapes S1 ∪ S2}| <= f.
/// Returns nullopt otherwise. Evaluated as the g = f split of
/// admissible_thresholds, the reference the search's ComponentMasks is
/// held to.
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
/// derived for each: κ is computed once and every g in [0, κ-1] is tested
/// cheaply. The reference evaluator: the big-SCC path, is_sink and
/// is_sink_star call it directly, and ComponentMasks reproduces it for
/// the S1s the strategies enumerate inside one SCC.
struct AdmissibleSplit {
  std::size_t g;
  IdSet s2;

  friend bool operator==(const AdmissibleSplit&,
                         const AdmissibleSplit&) = default;
};
[[nodiscard]] std::vector<AdmissibleSplit> admissible_thresholds(
    const KnowledgeView& view, const IdSet& s1);

/// K[C] of one received SCC C (2 <= |C| <= 63) as 64-bit masks, built once
/// so that every S1 ⊆ C the search strategies enumerate is one word: bit b
/// names C's b-th smallest id. admissible_thresholds(s1) equals
/// admissible_thresholds(view, members(s1)) split for split — same g order,
/// same S2 — without building K[S1]. κ comes from mask reachability and the
/// complete-graph and degree-bound exits; the flow routine runs on
/// view.knowledge_graph(S1) only when those leave κ open and a split above
/// g = 0 depends on it. P4 and P3 are popcounts of in-masks against S1.
/// Borrows `view`, which must outlive it.
class ComponentMasks {
 public:
  static constexpr std::size_t kMaxMembers = 63;

  /// `component` holds 2..63 ids, normally one received SCC.
  ComponentMasks(const KnowledgeView& view, const IdSet& component);

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  /// The mask naming all of C.
  [[nodiscard]] std::uint64_t all() const {
    return (std::uint64_t{1} << ids_.size()) - 1;
  }
  /// The ids `mask` names, ascending. Every mask passed in lies within
  /// all().
  [[nodiscard]] IdSet members(std::uint64_t mask) const;
  [[nodiscard]] std::vector<AdmissibleSplit> admissible_thresholds(
      std::uint64_t s1) const;

 private:
  /// One id some member's PD names (self-loops dropped), with the mask of
  /// the members naming it and, for a member of C, its own bit.
  struct Target {
    ProcessId id;
    std::uint64_t from = 0;
    std::uint64_t self = 0;
  };

  [[nodiscard]] bool strongly_connected(std::uint64_t s1) const;

  const KnowledgeView* view_;
  std::vector<ProcessId> ids_;
  std::vector<std::uint64_t> out_;  ///< out_[b]: members b's PD names
  std::vector<std::uint64_t> in_;   ///< in_[b]: members whose PD names b
  std::vector<Target> targets_;     ///< ascending by id
};

}  // namespace bftcup::protocol
