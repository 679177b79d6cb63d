#include "protocol/sink_search.hpp"

#include <algorithm>
#include <set>

#include "common/fnv.hpp"
#include "common/random.hpp"
#include "graph/scc.hpp"
#include "obs/span_tracer.hpp"

namespace bftcup::protocol {
namespace {

/// The structured strategy's full C \ D combination sweep stops here; the
/// exhaustive strategy stops at its (clamped <= 63) subset-mask cap. Both
/// hand larger components to enumerate_big_scc.
constexpr std::size_t kStructuredEnumerationCap = 63;

/// Appends every admissible split of `s1` as a candidate.
void collect_candidates_for(const KnowledgeView& view, const IdSet& s1,
                            std::vector<SinkCandidate>& out) {
  for (AdmissibleSplit& split : admissible_thresholds(view, s1)) {
    out.push_back({s1, std::move(split.s2), split.g});
  }
}

/// Candidates the exhaustive strategy derives from one SCC: every non-empty
/// subset, masks ascending. One scratch S1 is reused across all 2^n - 1
/// masks (cleared, refilled in ascending id order) so the inner loop's only
/// allocation is its first capacity growth — the FlatSet-scratch half of
/// the run engine's near-zero-heap steady state. collect_candidates_for
/// copies S1 into whatever it emits, so reuse cannot leak.
void enumerate_exhaustive(const KnowledgeView& view, const IdSet& scc,
                          std::vector<SinkCandidate>& out) {
  const auto& ids = scc.values();
  const std::size_t n = ids.size();
  IdSet s1;
  s1.reserve(n);
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    s1.clear();
    for (std::size_t b = 0; b < n; ++b) {
      // ids is sorted, so these inserts are ordered appends.
      if (mask & (std::uint64_t{1} << b)) s1.insert(ids[b]);
    }
    collect_candidates_for(view, s1, out);
  }
}

/// Candidates the structured strategy derives from one SCC: C itself, then
/// C \ D for every removal set D with |D| <= removal_cap.
void enumerate_structured(const KnowledgeView& view, const IdSet& scc,
                          std::size_t removal_cap,
                          std::vector<SinkCandidate>& out) {
  const auto& ids = scc.values();
  const std::size_t n = ids.size();
  const std::size_t cap = std::min(removal_cap, n - 1);

  collect_candidates_for(view, scc, out);
  for (std::size_t d = 1; d <= cap; ++d) {
    std::vector<std::size_t> combo(d);
    for (std::size_t i = 0; i < d; ++i) combo[i] = i;
    bool more = true;
    while (more) {
      IdSet s1 = scc;
      for (std::size_t idx : combo) s1.erase(ids[idx]);
      collect_candidates_for(view, s1, out);

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

/// SCCs of the knowledge graph restricted to processes with received PDs —
/// any strongly connected S1 (P2 needs κ >= 1) is a subset of one of these.
/// Both strategies walk them in this order, which fixes candidate order.
std::vector<IdSet> received_sccs(const KnowledgeView& view) {
  return graph::strongly_connected_components(
             view.knowledge_graph(view.received()))
      .members;
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
/// as `engine.big_scc_fallbacks` in the installed registry) and to the
/// strategy's own `enumerate` otherwise.
template <typename Enumerate>
std::vector<SinkCandidate> enumerate_sccs(const KnowledgeView& view,
                                          std::size_t enumeration_cap,
                                          const SearchOptions& options,
                                          const Enumerate& enumerate) {
  std::vector<SinkCandidate> out;
  for (const IdSet& scc : received_sccs(view)) {
    const obs::ScopedSpan span("membership.scc_eval", scc.size());
    obs::MetricsRegistry* const metrics = obs::current_metrics();
    if (metrics != nullptr) {
      metrics->histogram("eval.scc_size").record(scc.size());
    }
    if (scc.size() > enumeration_cap) {
      if (metrics != nullptr) {
        metrics->counter("engine.big_scc_fallbacks").add();
      }
      const obs::ScopedSpan certify("membership.big_scc_certify", scc.size());
      enumerate_big_scc(view, scc, options.removal_cap,
                        options.big_scc_samples, out);
      continue;
    }
    enumerate(scc, out);
  }
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
  out.exhaustive_cap = std::min<std::size_t>(out.exhaustive_cap, 63);
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
      [&](const IdSet& scc, std::vector<SinkCandidate>& out) {
        enumerate_exhaustive(view, scc, out);
      });
}

std::vector<SinkCandidate> StructuredSinkSearch::candidates(
    const KnowledgeView& view) const {
  return enumerate_sccs(
      view, kStructuredEnumerationCap, options_,
      [&](const IdSet& scc, std::vector<SinkCandidate>& out) {
        enumerate_structured(view, scc, options_.removal_cap, out);
      });
}

}  // namespace bftcup::protocol
