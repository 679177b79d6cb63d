// The run engine: every scenario run executes on a RunContext.
//
// The unit of work this repo executes millions of times — one short
// scenario run inside BatchRunner or the adversary explorer — would pay
// full construction cost every time if each run built its engine anew: a
// Simulator, its process table, and a cold evaluation memo, all used for a
// few thousand events and thrown away. A RunContext is those engine parts
// kept alive between runs, and nothing else:
//
//  * a resettable Simulator — Simulator::reset() clears run state but
//    keeps every grown capacity (event-queue buckets, slot vectors). The
//    key registry and its signature memo are run state: a run's keys
//    derive from its seed, so every run starts with an empty memo;
//  * the SharedEvalCache (a ContentMemo, common/content_memo.hpp, keyed by
//    strategy + parameter + canonical view bytes), the one memo kept
//    between runs, which every node of a run borrows by plain pointer:
//    declared before the simulator, it outlives every node.
//
// Every eval memo key binds all inputs its result depends on, so retained
// entries are exact answers, and a recycled run is observationally
// identical to a fresh one — RunContextTest and
// BatchRunnerTest.ParallelSweepMatchesSerialBitForBit assert digest
// equality against one-shot runs. run_scenario is itself a one-shot
// context, so there is one run path.
//
// The payoff is structural: the converged knowledge views of a topology
// family are identical across seeds, so after the first few runs the
// exponential membership searches of a batch are answered from the memo.
//
// Not thread-safe: one RunContext per worker, by construction in
// BatchRunner. Each run's metrics come from a registry local to that run,
// but the eval memo's hit/miss split among them describes this context's
// warm memo — under a thread pool it depends on which worker executed
// which prior runs (the signature counts, the behavioral fields and the
// digest never do).
#pragma once

#include <optional>

#include "cup/runner.hpp"

namespace bftcup::cup {

class RunContext {
 public:
  RunContext() = default;
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
  /// Entry cap for the eval memo: crossing it empties the memo (capacity
  /// and counters are kept). A bound on footprint for million-run fuzzing
  /// sessions, never a correctness lever; entries carry their canonical
  /// view bytes (~KB each).
  static constexpr std::size_t kEvalCacheMaxEntries = 1u << 14;

  protocol::SharedEvalCache eval_cache_;
  std::optional<sim::Simulator> simulator_;  ///< created on first run
  std::uint64_t runs_ = 0;
};

}  // namespace bftcup::cup
