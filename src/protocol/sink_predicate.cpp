#include "protocol/sink_predicate.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/bitset64.hpp"
#include "graph/connectivity.hpp"
#include "graph/scc.hpp"

namespace bftcup::protocol {
namespace {

/// One counting pass over S1's received PDs, shared by P4 (S2 derivation)
/// and P3 (escape counting) at *every* threshold g — the quadratic
/// re-derive-per-g loop collapses to one O(E log E) pass plus O(|S2|)
/// per threshold:
///  * in_count — every target outside S1 with the number of S1 members
///    pointing at it, ascending by id. S2(g) = {t : count(t) > g} (P4).
///  * escape_min — for each S1 member with at least one outside target,
///    the minimum in-count among those targets, sorted ascending. The
///    member's PD escapes S1 ∪ S2(g) iff one of its outside targets is
///    *not* in S2(g), i.e. iff that minimum is <= g — so the escape count
///    at g (P3) is one upper_bound.
struct OutsideCounts {
  std::vector<std::pair<std::uint64_t, std::size_t>> in_count;
  std::vector<std::size_t> escape_min;
};

OutsideCounts outside_counts(const KnowledgeView& view, const IdSet& s1,
                             const AdaptiveIdProbe& s1_probe) {
  OutsideCounts out;
  std::vector<std::uint64_t> targets;  // outside targets, with multiplicity
  for (ProcessId i : s1) {
    const IdSet* pd = view.pd_of(i);
    if (pd == nullptr) continue;
    for (ProcessId t : *pd) {
      if (!s1_probe.contains(t)) targets.push_back(t.raw());
    }
  }
  std::sort(targets.begin(), targets.end());
  for (std::size_t i = 0; i < targets.size();) {
    std::size_t j = i;
    while (j < targets.size() && targets[j] == targets[i]) ++j;
    out.in_count.emplace_back(targets[i], j - i);
    i = j;
  }

  const auto count_of = [&](std::uint64_t raw) {
    const auto it = std::lower_bound(
        out.in_count.begin(), out.in_count.end(), raw,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
    return it->second;
  };
  for (ProcessId i : s1) {
    const IdSet* pd = view.pd_of(i);
    if (pd == nullptr) continue;
    std::size_t min_count = 0;
    bool any_outside = false;
    for (ProcessId t : *pd) {
      if (s1_probe.contains(t)) continue;
      const std::size_t c = count_of(t.raw());
      min_count = any_outside ? std::min(min_count, c) : c;
      any_outside = true;
    }
    if (any_outside) out.escape_min.push_back(min_count);
  }
  std::sort(out.escape_min.begin(), out.escape_min.end());
  return out;
}

/// S2 at threshold g: outside processes pointed to by more than g members
/// of S1 (property P4). in_count is ascending, so inserts are ordered
/// appends.
IdSet s2_at(const OutsideCounts& counts, std::size_t g) {
  IdSet s2;
  for (const auto& [raw, count] : counts.in_count) {
    if (count > g) s2.insert(ProcessId(raw));
  }
  return s2;
}

/// Members of S1 whose PD escapes S1 ∪ S2(g) (property P3, erratum order).
std::size_t escapes_at(const OutsideCounts& counts, std::size_t g) {
  return static_cast<std::size_t>(
      std::upper_bound(counts.escape_min.begin(), counts.escape_min.end(), g) -
      counts.escape_min.begin());
}

graph::Digraph induced_knowledge(const KnowledgeView& view, const IdSet& s1,
                                 const AdaptiveIdProbe& s1_probe) {
  graph::Digraph g;
  for (ProcessId id : s1) g.add_vertex(id);
  for (ProcessId id : s1) {
    const IdSet* pd = view.pd_of(id);
    if (pd == nullptr) continue;
    // A PD is a set, so each (id, t) pair occurs once — the unchecked
    // insert keeps a dense S1 (the big-SCC certification path evaluates
    // near-complete components) quadratic instead of cubic.
    for (ProcessId t : *pd) {
      if (s1_probe.contains(t)) g.add_edge_unchecked(id, t);
    }
  }
  return g;
}

}  // namespace

std::optional<IdSet> is_sink(const KnowledgeView& view, std::size_t f,
                             const IdSet& s1) {
  // P1: size and "connectivity of S1 is computable" (S1 ⊆ S_received).
  if (s1.size() < 2 * f + 1) return std::nullopt;
  if (!s1.is_subset_of(view.received())) return std::nullopt;

  const AdaptiveIdProbe s1_probe(s1);

  // P2: κ(K[S1]) >= f+1.
  const graph::Digraph sub = induced_knowledge(view, s1, s1_probe);
  if (!graph::is_k_strongly_connected(sub, f + 1)) return std::nullopt;

  // P4 then P3 (erratum order; see header).
  const OutsideCounts counts = outside_counts(view, s1, s1_probe);
  if (escapes_at(counts, f) > f) return std::nullopt;
  return s2_at(counts, f);
}

bool is_sink(const KnowledgeView& view, std::size_t f, const IdSet& s1,
             const IdSet& s2) {
  const auto derived = is_sink(view, f, s1);
  return derived.has_value() && *derived == s2;
}

std::vector<AdmissibleSplit> admissible_thresholds(const KnowledgeView& view,
                                                   const IdSet& s1) {
  if (s1.empty() || !s1.is_subset_of(view.received())) return {};
  const AdaptiveIdProbe s1_probe(s1);
  const std::size_t kappa =
      graph::strong_connectivity(induced_knowledge(view, s1, s1_probe));
  if (kappa == 0) return {};

  // g is bounded by P2 (g <= κ-1) and P1 (2g+1 <= |S1|). One counting pass
  // serves every threshold.
  const OutsideCounts counts = outside_counts(view, s1, s1_probe);
  const std::size_t g_max = std::min(kappa - 1, (s1.size() - 1) / 2);
  std::vector<AdmissibleSplit> splits;
  for (std::size_t g = 0; g <= g_max; ++g) {
    if (escapes_at(counts, g) <= g) splits.push_back({g, s2_at(counts, g)});
  }
  return splits;
}

std::optional<std::size_t> is_sink_star(const KnowledgeView& view,
                                        const IdSet& s) {
  const IdSet base = s.set_intersection(view.received());
  assert(base.size() <= 24 && "is_sink_star is exhaustive; candidate too big");
  const auto& ids = base.values();
  const std::size_t n = ids.size();
  // Release-build backstop for the assert above: a 64-bit mask cannot
  // enumerate 2^64 subsets, and shifting by >= 64 is UB. Such a candidate
  // cannot be evaluated — report "not a sink" instead of corrupting memory.
  if (n >= 64) return std::nullopt;

  std::optional<std::size_t> best;
  // Enumerate S1 ⊆ S ∩ S_received (non-empty).
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    IdSet s1;
    s1.reserve(static_cast<std::size_t>(std::popcount(mask)));
    for (std::size_t b = 0; b < n; ++b) {
      if (mask & (std::uint64_t{1} << b)) s1.insert(ids[b]);
    }
    // The split must cover S exactly: S2 = S \ S1 is forced.
    const IdSet wanted_s2 = s.set_difference(s1);
    for (const AdmissibleSplit& split : admissible_thresholds(view, s1)) {
      if (split.s2 == wanted_s2) {
        if (!best || split.g > *best) best = split.g;
      }
    }
  }
  return best;
}

}  // namespace bftcup::protocol
