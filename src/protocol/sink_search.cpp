#include "protocol/sink_search.hpp"

#include <algorithm>
#include <set>
#include <span>

#include "common/fnv.hpp"
#include "common/random.hpp"
#include "graph/scc.hpp"
#include "obs/span_tracer.hpp"

namespace bftcup::protocol {
namespace {

/// The structured strategy's full C \ D combination sweep stops here; the
/// exhaustive strategy stops at its (clamped <= 63) subset-mask cap. Both
/// hand larger components to enumerate_big_scc.
constexpr std::size_t kStructuredEnumerationCap = ComponentMasks::kMaxMembers;

/// Appends every admissible split of `s1` as a candidate (the reference
/// evaluator; the big-SCC path).
void collect_candidates_for(const KnowledgeView& view, const IdSet& s1,
                            std::vector<SinkCandidate>& out) {
  for (AdmissibleSplit& split : admissible_thresholds(view, s1)) {
    out.push_back({s1, std::move(split.s2), split.g});
  }
}

/// Appends every admissible split of the S1 that `mask` names. S1's IdSet
/// is built only when there is a split to emit.
void collect_candidates_for(const ComponentMasks& component,
                            std::uint64_t mask,
                            std::vector<SinkCandidate>& out) {
  std::vector<AdmissibleSplit> splits = component.admissible_thresholds(mask);
  if (splits.empty()) return;
  const IdSet s1 = component.members(mask);
  for (AdmissibleSplit& split : splits) {
    out.push_back({s1, std::move(split.s2), split.g});
  }
}

/// Candidates the exhaustive strategy derives from one SCC: every non-empty
/// subset, masks ascending.
void enumerate_exhaustive(const ComponentMasks& component,
                          std::vector<SinkCandidate>& out) {
  for (std::uint64_t mask = 1; mask <= component.all(); ++mask) {
    collect_candidates_for(component, mask, out);
  }
}

/// Candidates the structured strategy derives from one SCC: C itself, then
/// C \ D for every removal set D with |D| <= removal_cap.
void enumerate_structured(const ComponentMasks& component,
                          std::size_t removal_cap,
                          std::vector<SinkCandidate>& out) {
  const std::size_t n = component.size();
  const std::size_t cap = std::min(removal_cap, n - 1);

  collect_candidates_for(component, component.all(), out);
  for (std::size_t d = 1; d <= cap; ++d) {
    std::vector<std::size_t> combo(d);
    for (std::size_t i = 0; i < d; ++i) combo[i] = i;
    bool more = true;
    while (more) {
      std::uint64_t mask = component.all();
      for (std::size_t idx : combo) mask &= ~(std::uint64_t{1} << idx);
      collect_candidates_for(component, mask, out);

      // Advance to the next d-combination of {0..n-1}.
      more = false;
      for (std::size_t i = d; i-- > 0;) {
        if (combo[i] < n - d + i) {
          ++combo[i];
          for (std::size_t j = i + 1; j < d; ++j) combo[j] = combo[j - 1] + 1;
          more = true;
          break;
        }
      }
    }
  }
}

/// Calls `visit(scc)` for every SCC of K[S_received], `scc` being the
/// component's ids ascending; any strongly connected S1 (P2 needs κ >= 1)
/// is a subset of one of these. The owners are S_received ascending, and
/// one walk of view.pds() (parallel to them) merges each sorted PD against
/// them into one flat adjacency of ranks (self-loops dropped); Tarjan runs
/// on that. Vertices and out-lists ascend exactly as
/// knowledge_graph(received()) orders them, so the components come in the
/// same order, which fixes candidate order for both strategies.
template <typename Visit>
void for_each_received_scc(const KnowledgeView& view, const Visit& visit) {
  const std::vector<ProcessId>& ids = view.received().values();  // rank -> id
  const auto& pds = view.pds();
  std::size_t named = 0;
  for (const auto& pd : pds) named += pd->size();

  // Owner r's targets are targets[offsets[r] .. offsets[r + 1]), as ranks.
  std::vector<std::size_t> offsets;
  offsets.reserve(ids.size() + 1);
  offsets.push_back(0);
  std::vector<std::size_t> targets;
  targets.reserve(named);
  for (const auto& pd : pds) {
    const std::size_t rank = offsets.size() - 1;
    auto it = ids.begin();
    for (ProcessId t : *pd) {
      it = std::lower_bound(it, ids.end(), t);
      if (it == ids.end()) break;
      const auto target = static_cast<std::size_t>(it - ids.begin());
      if (*it == t && target != rank) targets.push_back(target);
    }
    offsets.push_back(targets.size());
  }

  std::vector<ProcessId> scc;
  scc.reserve(ids.size());
  graph::tarjan_scc(
      ids.size(),
      [&](std::size_t v) {
        return std::span<const std::size_t>(targets).subspan(
            offsets[v], offsets[v + 1] - offsets[v]);
      },
      [&](std::span<const std::size_t> members) {
        scc.clear();
        for (std::size_t r : members) scc.push_back(ids[r]);
        std::sort(scc.begin(), scc.end());
        visit(std::span<const ProcessId>(scc));
      });
}

/// The ascending ids `scc` holds, as a set.
IdSet as_set(std::span<const ProcessId> scc) {
  return IdSet(std::vector<ProcessId>(scc.begin(), scc.end()));
}

/// Big-SCC certification: components too large to enumerate are *certified
/// or refuted* instead of skipped. The component C itself is always
/// evaluated — its κ runs through the connectivity early-exits
/// (complete-graph closed form, degree bound, pivot flows), so a genuine
/// sink component of any size certifies and a κ-deficient one refutes
/// without touching 2^|C| subsets. Around C, seeded samples of C \ D
/// probe the bounded-removal family the structured strategy would sweep.
/// The RNG seed is FNV over the member ids: a pure function of the
/// component, so replays and cross-thread runs see the same candidate
/// stream (and no ambient entropy enters — R2).
void enumerate_big_scc(const KnowledgeView& view, const IdSet& scc,
                       std::size_t removal_cap, std::size_t samples,
                       std::vector<SinkCandidate>& out) {
  collect_candidates_for(view, scc, out);
  if (samples == 0) return;

  const auto& ids = scc.values();
  const std::size_t n = ids.size();
  const std::size_t cap = std::min(removal_cap, n - 1);

  std::uint64_t seed = kFnvOffsetBasis;
  for (ProcessId id : scc) seed = fnv1a_mix_u64(seed, id.raw());
  Rng rng(seed);

  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  std::vector<std::size_t> combo;
  for (std::size_t d = 1; d <= cap; ++d) {
    std::set<std::vector<std::size_t>> seen;
    // A duplicate draw is wasted, not retried forever: the attempt budget
    // keeps the path strictly bounded.
    for (std::size_t attempt = 0;
         attempt < samples * 4 && seen.size() < samples; ++attempt) {
      // Partial Fisher–Yates: d distinct member indices.
      for (std::size_t k = 0; k < d; ++k) {
        const std::size_t j =
            k + static_cast<std::size_t>(rng.next_below(n - k));
        std::swap(pool[k], pool[j]);
      }
      combo.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(d));
      std::sort(combo.begin(), combo.end());
      if (!seen.insert(combo).second) continue;
      IdSet s1 = scc;
      for (std::size_t idx : combo) s1.erase(ids[idx]);
      collect_candidates_for(view, s1, out);
    }
  }
}

/// The loop both strategies share: every received SCC in order, routed to
/// the big-SCC certification path above `enumeration_cap` members (counted
/// as `engine.big_scc_fallbacks` in the installed registry) and otherwise,
/// as one ComponentMasks, to the strategy's own `enumerate`. Every
/// component opens a `membership.scc_eval` span and records its size in
/// `eval.scc_size`; only those it certifies or enumerates become sets.
template <typename Enumerate>
std::vector<SinkCandidate> enumerate_sccs(const KnowledgeView& view,
                                          std::size_t enumeration_cap,
                                          const SearchOptions& options,
                                          const Enumerate& enumerate) {
  std::vector<SinkCandidate> out;
  // No component, no sample: the histogram is not created either.
  if (view.received().empty()) return out;
  obs::MetricsRegistry* const metrics = obs::current_metrics();
  obs::MetricsRegistry::Histogram* const sizes =
      metrics != nullptr ? &metrics->histogram("eval.scc_size") : nullptr;
  for_each_received_scc(view, [&](std::span<const ProcessId> scc) {
    const obs::ScopedSpan span("membership.scc_eval", scc.size());
    if (sizes != nullptr) sizes->record(scc.size());
    if (scc.size() > enumeration_cap) {
      if (metrics != nullptr) {
        metrics->counter("engine.big_scc_fallbacks").add();
      }
      const obs::ScopedSpan certify("membership.big_scc_certify", scc.size());
      enumerate_big_scc(view, as_set(scc), options.removal_cap,
                        options.big_scc_samples, out);
      return;
    }
    // κ = 0 below two vertices: a one-member component yields nothing.
    if (scc.size() < 2) return;
    enumerate(ComponentMasks(view, as_set(scc)), out);
  });
  return out;
}

std::string options_key(const char* name, const SearchOptions& options) {
  std::string key = name;
  key += "/cap=" + std::to_string(options.exhaustive_cap);
  key += "/rm=" + std::to_string(options.removal_cap);
  key += "/bs=" + std::to_string(options.big_scc_samples);
  return key;
}

}  // namespace

SearchOptions SearchOptions::validated() const {
  SearchOptions out = *this;
  // A 64-bit mask enumerates at most 2^63 subsets; larger caps would shift
  // by >= 64 bits (UB). Clamping is safe: SCCs beyond 63 members could never
  // finish enumerating anyway.
  out.exhaustive_cap =
      std::min(out.exhaustive_cap, ComponentMasks::kMaxMembers);
  return out;
}

ExhaustiveSinkSearch::ExhaustiveSinkSearch(SearchOptions options)
    : options_(options.validated()),
      cache_key_(options_key("exhaustive", options_)) {}

StructuredSinkSearch::StructuredSinkSearch(SearchOptions options)
    : options_(options.validated()),
      cache_key_(options_key("structured", options_)) {}

std::vector<SinkCandidate> ExhaustiveSinkSearch::candidates(
    const KnowledgeView& view) const {
  return enumerate_sccs(
      view, options_.exhaustive_cap, options_,
      [](const ComponentMasks& component, std::vector<SinkCandidate>& out) {
        enumerate_exhaustive(component, out);
      });
}

std::vector<SinkCandidate> StructuredSinkSearch::candidates(
    const KnowledgeView& view) const {
  return enumerate_sccs(
      view, kStructuredEnumerationCap, options_,
      [&](const ComponentMasks& component, std::vector<SinkCandidate>& out) {
        enumerate_structured(component, options_.removal_cap, out);
      });
}

}  // namespace bftcup::protocol
