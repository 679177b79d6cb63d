// Validity-preserving genome mutation.
//
// Every mutation the explorer feeds back into the corpus must be a scenario
// ScenarioBuilder::build() accepts — a fuzzer that drowns in its own
// malformed inputs measures nothing. The mutator perturbs one dimension at
// a time (topology, fault set, Byzantine behavior, fake-PD target sets,
// fault timeline, synchrony knobs, seed) and rejection-samples: a candidate
// that fails validation, exceeds the structural bounds, or equals its
// parent is discarded and another operator is drawn, up to
// `kMaxAttempts` times. The operator mix is deliberately biased toward the
// adversary-controlled dimensions (fake PDs, timeline) — that is where the
// paper's interesting counterexamples live.
#pragma once

#include "common/random.hpp"
#include "explore/genome.hpp"

namespace bftcup::explore {

class Mutator {
 public:
  /// Structural bounds every mutant stays within; the vertex cap keeps the
  /// omniscient checkers affordable.
  static constexpr std::size_t kMaxVertices = 12;
  static constexpr std::size_t kMaxTimeline = 8;

  /// One valid mutant of `parent`, or nullopt if the attempt budget ran out
  /// (e.g. the parent sits in a corner of the space every operator leaves).
  /// Deterministic given the rng state.
  [[nodiscard]] std::optional<Genome> mutate(const Genome& parent,
                                             Rng& rng) const;

 private:
  static constexpr std::size_t kMaxAttempts = 32;  ///< per mutate() call
  static constexpr SimTime kMinHorizon = 50'000;
  static constexpr SimTime kMaxHorizon = 2'000'000;
  static constexpr SimTime kMaxGst = 100'000;
  static constexpr SimTime kMaxDelta = 100;

  /// One unvalidated candidate (may equal the parent; may be invalid).
  [[nodiscard]] Genome mutate_once(const Genome& parent, Rng& rng) const;
};

}  // namespace bftcup::explore
