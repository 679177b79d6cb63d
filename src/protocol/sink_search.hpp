// Candidate enumeration for the Sink (Alg. 2) and Core (Alg. 4) algorithms.
//
// The algorithms as specified quantify existentially over subsets of
// S_received — an exponential search. Two strategies are provided behind one
// interface (DESIGN.md §4.3):
//
//  * ExhaustiveSinkSearch — bitmask enumeration of subsets inside each SCC
//    of the received-knowledge graph (any strongly connected S1 lies inside
//    one SCC). Reference semantics; SCCs above the cap take the big-SCC
//    certification path (component + seeded C \ D samples) instead of
//    being skipped.
//  * StructuredSinkSearch — candidate S1s are SCCs of the received-knowledge
//    graph plus bounded removals C \ D, |D| <= removal_cap. Polynomial for
//    fixed cap; exploits that satisfying S1s are SCC-shaped (correct sink
//    members are mutually (f+1)-connected, and at most f Byzantine/silent
//    processes perturb the component).
//
// Both strategies walk the SCCs of the received-knowledge graph in order and
// enumerate each one from scratch on every evaluation, so candidate order —
// and therefore every downstream decision — is a pure function of the view.
// The only membership memo sits above them: the shared evaluation cache
// (protocol/eval_cache.hpp) answers repeated views whole.
//
// Property tests cross-validate the two strategies on random graphs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "protocol/sink_predicate.hpp"

namespace bftcup::protocol {

/// One satisfying assignment of the isSink predicate.
struct SinkCandidate {
  IdSet s1;
  IdSet s2;
  std::size_t g = 0;  ///< fault threshold witnessing this candidate

  [[nodiscard]] IdSet members() const { return s1.set_union(s2); }

  friend bool operator==(const SinkCandidate&, const SinkCandidate&) = default;
};

struct SearchOptions {
  /// Exhaustive strategy: SCCs larger than this take the big-SCC
  /// certification path (see big_scc_samples) instead of being bitmask-
  /// enumerated. Values >= 64 are clamped to 63 by the strategies — a
  /// 64-bit subset mask cannot enumerate further, and the unclamped shift
  /// would be undefined behavior.
  std::size_t exhaustive_cap = 16;
  /// Structured strategy: maximum |D| for C \ D candidates.
  std::size_t removal_cap = 3;
  /// Big-SCC certification path (components beyond the strategy's
  /// enumeration threshold — exhaustive_cap, or 63 for the structured
  /// strategy's full combination sweep): the component C itself is always
  /// evaluated (κ certification with the connectivity early-exits), then
  /// this many seeded samples of C \ D per removal size up to removal_cap.
  /// The sampling RNG is seeded from the component's member ids
  /// (content-addressed, via src/common/random — cup_lint R2 clean), so
  /// the candidate stream is a pure function of the view.
  std::size_t big_scc_samples = 24;
  /// Read nowhere; has no effect. Kept only because the end-to-end
  /// benchmark harness (bench/e2e/layers.cpp) still assigns it.
  bool incremental = true;

  /// Copy with every field clamped to a safe value (exhaustive_cap <= 63).
  [[nodiscard]] SearchOptions validated() const;
};

class SinkSearch {
 public:
  virtual ~SinkSearch() = default;

  /// Every satisfying (S1, S2, g) derivable from `view` under the strategy's
  /// candidate family.
  [[nodiscard]] virtual std::vector<SinkCandidate> candidates(
      const KnowledgeView& view) const = 0;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Identity of the strategy *and* its parameters — equal keys must mean
  /// equal candidate output for equal views. Keys the per-simulation
  /// SharedEvalCache.
  [[nodiscard]] virtual const std::string& cache_key() const = 0;
};

class ExhaustiveSinkSearch final : public SinkSearch {
 public:
  explicit ExhaustiveSinkSearch(SearchOptions options = {});

  [[nodiscard]] std::vector<SinkCandidate> candidates(
      const KnowledgeView& view) const override;
  [[nodiscard]] const char* name() const override { return "exhaustive"; }
  [[nodiscard]] const std::string& cache_key() const override {
    return cache_key_;
  }

 private:
  SearchOptions options_;
  std::string cache_key_;
};

class StructuredSinkSearch final : public SinkSearch {
 public:
  explicit StructuredSinkSearch(SearchOptions options = {});

  [[nodiscard]] std::vector<SinkCandidate> candidates(
      const KnowledgeView& view) const override;
  [[nodiscard]] const char* name() const override { return "structured"; }
  [[nodiscard]] const std::string& cache_key() const override {
    return cache_key_;
  }

 private:
  SearchOptions options_;
  std::string cache_key_;
};

/// Convenience: the default strategy used by nodes (exhaustive — every graph
/// in the paper and in the test corpus has small components).
[[nodiscard]] std::unique_ptr<SinkSearch> make_default_search();

/// Components routed through the big-SCC certification path on this thread
/// since the last reset (a simulator runs entirely on one thread;
/// execute_scenario brackets each run with reset + read so RunReport can
/// record the per-run figure). Resetting also re-arms the once-per-run
/// rate limit of the fallback warning.
[[nodiscard]] std::uint64_t big_scc_fallbacks();
void reset_big_scc_fallbacks();

}  // namespace bftcup::protocol
