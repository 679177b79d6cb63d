// Recyclable run engine: one pooled execution context per worker thread.
//
// The unit of work this repo now executes millions of times — one short
// scenario run inside BatchRunner or the adversary explorer — used to pay
// full construction cost every time: a fresh Simulator, process table, key
// derivations, trace buffers, and a cold evaluation cache, all used for a
// few thousand events and thrown away. A RunContext keeps those engine
// parts alive between runs:
//
//  * a resettable Simulator — Simulator::reset() clears run state but
//    keeps every grown capacity (event-queue buckets, slot vectors, memo
//    hash buckets);
//  * a RunArena backing the per-run hot allocations (trace records,
//    pending buffers), rewound — not freed — per run;
//  * a KeyringCache so per-process secrets are derived once per
//    (key-seed, id) and shared by every run that reuses them;
//  * cross-run *content-addressed* caches: the SharedEvalCache (keyed by
//    strategy + parameter + canonical view bytes) and the Simulator's signature
//    memo (keyed by key-seed + signer + payload + signature). Every key
//    binds all inputs its result depends on, so retained entries are
//    exact answers, and a recycled run is observationally identical to a
//    fresh one — the recycling property suite and BatchRunner's
//    verify_determinism both assert digest equality against fresh runs.
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

#include "crypto/keyring_cache.hpp"
#include "cup/runner.hpp"
#include "sim/run_arena.hpp"

namespace bftcup::cup {

class RunContext {
 public:
  RunContext();
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;
  RunContext(RunContext&&) = delete;
  RunContext& operator=(RunContext&&) = delete;

  /// Runs `scenario` on the recycled engine state; observationally
  /// identical to run_scenario(scenario). Honors the scenario's
  /// context_pooling knob (off delegates to a fresh run_scenario call).
  [[nodiscard]] RunReport run(const Scenario& scenario);

  /// Completed runs, including delegated fresh ones.
  [[nodiscard]] std::uint64_t runs_executed() const { return runs_; }

 private:
  /// Entry caps for the cross-run memos: crossing one empties that memo
  /// (capacity and counters are kept). A bound on footprint for
  /// million-run fuzzing sessions, never a correctness lever.
  // Eval entries carry their canonical view bytes (~KB each); signature
  // entries carry a payload + signature (~100 B each).
  static constexpr std::size_t kEvalCacheMaxEntries = 1u << 14;
  static constexpr std::size_t kVerifyCacheMaxEntries = 1u << 20;

  sim::RunArena arena_;
  crypto::KeyringCache keyring_;
  std::shared_ptr<protocol::SharedEvalCache> eval_cache_;
  std::unique_ptr<sim::Simulator> simulator_;  ///< created on first run
  std::uint64_t recycled_ = 0;  ///< pooled runs served by simulator_
  std::uint64_t runs_ = 0;
};

}  // namespace bftcup::cup
