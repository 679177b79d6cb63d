// The explorer's oracle: which runs count as findings.
//
// A finding is a run that violates a property the paper proves (agreement,
// validity, termination-under-solvability) or that disagrees with the
// paper's solvability predicate in the other direction (solved although the
// omniscient requirement check failed — a witness that the conditions are
// sufficient but not necessary). Safety verdicts are exact; the liveness
// verdict is necessarily heuristic (a horizon is not forever), so it only
// fires when the scenario gave the protocol a fair chance: requirements
// satisfied, every crash recovered, all disruption windows and GST well
// clear of the horizon. Safety breaks of the deliberately unsound kNaive
// mode count too: they are known witnesses (Theorem 7), still worth
// minimizing. Every finding is a deterministic (genome, seed) artifact, so
// a human can replay and audit the classification.
#pragma once

#include <optional>

#include "explore/genome.hpp"

namespace bftcup::explore {

enum class FindingKind : std::uint8_t {
  kAgreement,   ///< two correct processes decided differently
  kValidity,    ///< a correct process decided a never-proposed value
  kLiveness,    ///< solvable per the predicate, fair run, yet no termination
  kWitness,     ///< solved although the requirement check failed
  /// A safety break attributable to the hostile wire: the genome's wire
  /// genes are active, safety broke, and the same genome with the wire
  /// layer stripped replays clean at the same seed. For a sound protocol
  /// this must never fire — mutated frames may cost liveness, never
  /// safety — so any non-kNaive wire-safety finding is a decode-path or
  /// verification hole.
  kWireSafety,
};

[[nodiscard]] const char* to_string(FindingKind kind);

/// Omniscient solvability: Theorem 1 (kAuth/kNaive) or the Section V
/// requirements (kCupft) on G_safe = graph[correct], with the genome's
/// static faulty set. Timed crashes are *not* folded in — the predicate
/// speaks about the static fault configuration, which is exactly why
/// disagreements with dynamic-fault runs are interesting.
[[nodiscard]] bool requirements_satisfied(const Genome& genome);

struct Classification {
  FindingKind kind;
  bool requirements_satisfied;

  friend bool operator==(const Classification&,
                         const Classification&) = default;
};

/// Classifies one run; nullopt when the behavior is unremarkable. A safety
/// break with wire genes active is replayed with the wire stripped (same
/// seed): a clean baseline pins the blame on the hostile wire
/// (kWireSafety), a dirty one falls through to kAgreement/kValidity. That
/// costs one extra run, only on wire-active safety violations.
[[nodiscard]] std::optional<Classification> classify(
    const Genome& genome, const cup::RunReport& report);

}  // namespace bftcup::explore
