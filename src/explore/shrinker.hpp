// Delta-debugging counterexamples down to minimal repros.
//
// A raw finding is whatever tangle of mutations first tripped the oracle;
// the shrinker greedily applies single-step *deletions* — drop a timeline
// gene, remove a fake-PD member or a whole fake-PD entry, remove a graph
// edge, remove a vertex (with its references), un-mark a faulty process —
// keeping a candidate only if it still validates and still replays to the
// same *Classification*: FindingKind AND requirements_satisfied. Preserving
// the latter stops the classic ddmin failure of sliding into a different
// root cause (an agreement break under satisfied requirements — a real
// protocol attack — must not "minimize" into a disconnected split-brain,
// which violates agreement for the trivial reason that the requirements no
// longer hold). It terminates at a fixpoint: a genome none of whose
// single-step reductions preserves the finding (1-minimality, the classic
// ddmin guarantee). Every replay runs through the shrinker's recycled
// cup::RunContext — ddmin probes hundreds of near-identical genomes, the
// run engine's best case — and stays deterministic and observationally
// identical to a fresh run_scenario call; shrinking is single-threaded by
// design.
#pragma once

#include "cup/run_context.hpp"
#include "explore/genome.hpp"
#include "explore/oracle.hpp"

namespace bftcup::explore {

struct ShrinkOptions {
  /// Replay budget; shrinking stops (fixpoint unverified) when exhausted.
  std::size_t max_runs = 600;
};

struct ShrinkOutcome {
  Genome genome;          ///< the minimized counterexample
  std::size_t runs = 0;   ///< replays spent
  bool fixpoint = false;  ///< true iff 1-minimality was verified in budget
};

class Shrinker {
 public:
  explicit Shrinker(ShrinkOptions options = {}) : options_(options) {}

  /// Minimizes `start` (which must replay to `target`) under the reduction
  /// set below. Deterministic.
  [[nodiscard]] ShrinkOutcome shrink(const Genome& start,
                                     const Classification& target) const;

  /// Every single-step reduction of `genome`, in the fixed order the
  /// greedy loop probes them (timeline genes, fake-PD members, fake-PD
  /// entries, faulty marks, edges, vertices). Public so the fixpoint test
  /// can re-check 1-minimality independently. Candidates are NOT validated.
  [[nodiscard]] static std::vector<Genome> reductions(const Genome& genome);

  /// True iff `genome` validates and replays to exactly `target`.
  [[nodiscard]] bool reproduces(const Genome& genome,
                                const Classification& target) const;

 private:
  ShrinkOptions options_;
  /// Replay engine, recycled across the ddmin probes. Mutable: warming the
  /// pool is not an observable state change (replay results are identical
  /// to fresh runs). Makes the shrinker non-copyable, like the context.
  mutable cup::RunContext context_;
};

}  // namespace bftcup::explore
