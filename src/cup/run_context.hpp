// The run engine: every scenario run executes on a RunContext.
//
// The unit of work this repo executes millions of times — one short
// scenario run inside BatchRunner or the adversary explorer — would pay
// full construction cost every time if each run built its engine anew: a
// Simulator, its process table, key derivations, and a cold evaluation
// memo, all used for a few thousand events and thrown away. A RunContext
// is those engine parts kept alive between runs, and nothing else:
//
//  * a resettable Simulator — Simulator::reset() clears run state but
//    keeps every grown capacity (event-queue buckets, slot vectors) and
//    the signature memo (keyed by key-seed + signer + payload);
//  * the SharedEvalCache (keyed by strategy + parameter + canonical view
//    bytes).
//
// Every memo key binds all inputs its result depends on, so retained
// entries are exact answers, and a recycled run is observationally
// identical to a fresh one — the recycling property suite and BatchRunner's
// verify_determinism both assert digest equality against one-shot runs.
// run_scenario is itself a one-shot context, so there is one run path.
//
// The payoff is structural: the converged knowledge views of a topology
// family are identical across seeds, so after the first few runs the
// exponential membership searches of a batch are answered from the memo.
//
// Not thread-safe: one RunContext per worker, by construction in
// BatchRunner. Each run's metrics come from a registry local to that run,
// but the cache hit/miss splits among them describe this context's warm
// caches — under a thread pool they depend on which worker executed which
// prior runs (the behavioral fields and the digest never do).
#pragma once

#include <memory>
#include <optional>

#include "cup/runner.hpp"

namespace bftcup::cup {

class RunContext {
 public:
  RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;
  RunContext(RunContext&&) = delete;
  RunContext& operator=(RunContext&&) = delete;

  /// Runs `scenario` on the recycled engine state; observationally
  /// identical to the same run on a new context.
  [[nodiscard]] RunReport run(const Scenario& scenario);

  /// Completed runs.
  [[nodiscard]] std::uint64_t runs_executed() const { return runs_; }

 private:
  /// Entry caps for the cross-run memos: crossing one empties that memo
  /// (capacity and counters are kept). A bound on footprint for
  /// million-run fuzzing sessions, never a correctness lever.
  // Eval entries carry their canonical view bytes (~KB each); signature
  // entries carry a payload + signature (~100 B each).
  static constexpr std::size_t kEvalCacheMaxEntries = 1u << 14;
  static constexpr std::size_t kSignCacheMaxEntries = 1u << 20;

  std::shared_ptr<protocol::SharedEvalCache> eval_cache_;
  std::optional<sim::Simulator> simulator_;  ///< created on first run
  std::uint64_t runs_ = 0;
};

}  // namespace bftcup::cup
