#include "protocol/sink_predicate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "common/bitset64.hpp"
#include "graph/connectivity.hpp"

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

}  // namespace

std::optional<IdSet> is_sink(const KnowledgeView& view, std::size_t f,
                             const IdSet& s1) {
  // P1's size bound is f <= (|S1|-1)/2 and P2's κ >= f+1 is f <= κ-1, so
  // the split at g = f, if admissible, is exactly isSink(f, S1, S2).
  for (AdmissibleSplit& split : admissible_thresholds(view, s1)) {
    if (split.g == f) return std::move(split.s2);
  }
  return std::nullopt;
}

bool is_sink(const KnowledgeView& view, std::size_t f, const IdSet& s1,
             const IdSet& s2) {
  const auto derived = is_sink(view, f, s1);
  return derived.has_value() && *derived == s2;
}

std::vector<AdmissibleSplit> admissible_thresholds(const KnowledgeView& view,
                                                   const IdSet& s1) {
  // P1: "connectivity of S1 is computable" (S1 ⊆ S_received).
  if (s1.empty() || !s1.is_subset_of(view.received())) return {};
  // P2: κ(K[S1]) >= g+1 for some g >= 0.
  const std::size_t kappa =
      graph::strong_connectivity(view.knowledge_graph(s1));
  if (kappa == 0) return {};

  // g is bounded by P2 (g <= κ-1) and P1 (2g+1 <= |S1|). One counting pass
  // serves every threshold, P4 then P3 (erratum order; see header).
  const OutsideCounts counts =
      outside_counts(view, s1, AdaptiveIdProbe(s1));
  const std::size_t g_max = std::min(kappa - 1, (s1.size() - 1) / 2);
  std::vector<AdmissibleSplit> splits;
  for (std::size_t g = 0; g <= g_max; ++g) {
    if (escapes_at(counts, g) <= g) splits.push_back({g, s2_at(counts, g)});
  }
  return splits;
}

ComponentMasks::ComponentMasks(const KnowledgeView& view,
                               const IdSet& component)
    : view_(&view),
      ids_(component.values()),
      out_(ids_.size(), 0),
      in_(ids_.size(), 0) {
  assert(ids_.size() >= 2 && ids_.size() <= kMaxMembers);
  // Every (target, naming member) pair, grouped by target. A member whose
  // PD was never received names nothing, so its out-row stays empty and
  // every S1 holding it fails the degree exit — as P1 fails in the
  // reference.
  std::vector<std::pair<ProcessId, std::uint64_t>> named;
  for (std::size_t b = 0; b < ids_.size(); ++b) {
    const IdSet* pd = view.pd_of(ids_[b]);
    if (pd == nullptr) continue;
    for (ProcessId t : *pd) {
      if (t != ids_[b]) named.emplace_back(t, std::uint64_t{1} << b);
    }
  }
  std::sort(named.begin(), named.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [id, bit] : named) {
    if (targets_.empty() || targets_.back().id != id) targets_.push_back({id});
    targets_.back().from |= bit;
  }
  for (Target& t : targets_) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), t.id);
    if (it == ids_.end() || *it != t.id) continue;
    const auto c = static_cast<std::size_t>(it - ids_.begin());
    t.self = std::uint64_t{1} << c;
    in_[c] = t.from;
    for (std::uint64_t rest = t.from; rest != 0; rest &= rest - 1) {
      out_[static_cast<std::size_t>(std::countr_zero(rest))] |= t.self;
    }
  }
}

IdSet ComponentMasks::members(std::uint64_t mask) const {
  IdSet s;
  s.reserve(static_cast<std::size_t>(std::popcount(mask)));
  for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    // Bits ascend with ids, so these inserts are ordered appends.
    s.insert(ids_[static_cast<std::size_t>(std::countr_zero(rest))]);
  }
  return s;
}

bool ComponentMasks::strongly_connected(std::uint64_t s1) const {
  // Everything in S1 reaches and is reached by its lowest member.
  const auto reach = [&](const std::vector<std::uint64_t>& rows) {
    std::uint64_t seen = std::uint64_t{1} << std::countr_zero(s1);
    std::uint64_t frontier = seen;
    while (frontier != 0) {
      std::uint64_t next = 0;
      for (std::uint64_t rest = frontier; rest != 0; rest &= rest - 1) {
        next |= rows[static_cast<std::size_t>(std::countr_zero(rest))];
      }
      frontier = next & s1 & ~seen;
      seen |= frontier;
    }
    return seen;
  };
  return reach(out_) == s1 && reach(in_) == s1;
}

std::vector<AdmissibleSplit> ComponentMasks::admissible_thresholds(
    std::uint64_t s1) const {
  // P2 needs κ(K[S1]) >= 1: two or more members, each with an in- and an
  // out-edge inside S1, all mutually reachable. κ is at most the smallest
  // such degree, and exactly |S1|-1 on a complete K[S1].
  const auto k = static_cast<std::size_t>(std::popcount(s1));
  if (k < 2) return {};
  std::size_t bound = k;
  std::size_t edges = 0;
  for (std::uint64_t rest = s1; rest != 0; rest &= rest - 1) {
    const auto b = static_cast<std::size_t>(std::countr_zero(rest));
    const auto out = static_cast<std::size_t>(std::popcount(out_[b] & s1));
    const auto in = static_cast<std::size_t>(std::popcount(in_[b] & s1));
    bound = std::min({bound, out, in});
    if (bound == 0) return {};
    edges += out;
  }
  if (!strongly_connected(s1)) return {};

  // P1 and the degree bound cap g; a g above κ-1 is dropped below.
  const std::size_t g_max = std::min(bound - 1, (k - 1) / 2);
  // P4/P3 in one pass: a target outside S1 that c members of S1 name joins
  // S2(g) iff c > g, so a member escapes S1 ∪ S2(g) iff it names a target
  // of count <= g. escapes_by[c] holds the members naming a count-c target
  // (c >= 1: its namers are counted).
  std::array<std::uint64_t, kMaxMembers / 2 + 1> escapes_by{};
  for (const Target& t : targets_) {
    const std::uint64_t from = t.from & s1;
    if ((t.self & s1) != 0 || from == 0) continue;
    const auto c = static_cast<std::size_t>(std::popcount(from));
    if (c <= g_max) escapes_by[c] |= from;
  }
  // Bit g of `passing` marks a g <= g_max satisfying P3. g = 0 always
  // passes (escapes_by[0] is empty), and κ >= 1 admits it.
  std::uint64_t passing = 0;
  std::uint64_t escaping = 0;
  for (std::size_t g = 0; g <= g_max; ++g) {
    escaping |= escapes_by[g];
    if (static_cast<std::size_t>(std::popcount(escaping)) <= g) {
      passing |= std::uint64_t{1} << g;
    }
  }
  // A higher g needs κ itself, unless K[S1] is complete (κ = |S1|-1).
  if (passing > 1 && edges != k * (k - 1)) {
    const std::size_t kappa =
        graph::strong_connectivity(view_->knowledge_graph(members(s1)));
    passing &= (std::uint64_t{1} << kappa) - 1;  // κ <= bound <= 62
  }

  std::vector<AdmissibleSplit> splits;
  splits.reserve(static_cast<std::size_t>(std::popcount(passing)));
  for (std::uint64_t rest = passing; rest != 0; rest &= rest - 1) {
    const auto g = static_cast<std::size_t>(std::countr_zero(rest));
    IdSet s2;
    for (const Target& t : targets_) {
      if ((t.self & s1) == 0 &&
          static_cast<std::size_t>(std::popcount(t.from & s1)) > g) {
        s2.insert(t.id);
      }
    }
    splits.push_back({g, std::move(s2)});
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
