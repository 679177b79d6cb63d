#include "explore/oracle.hpp"

#include <algorithm>

#include "cup/runner.hpp"
#include "graph/extended_osr.hpp"
#include "graph/osr.hpp"

namespace bftcup::explore {
namespace {

/// Ticks of undisturbed post-GST/post-disruption time a run must have had
/// before NO-TERMINATION counts as a liveness finding.
constexpr SimTime kLivenessSlack = 150'000;

/// `genome` with every hostile-wire gene zeroed: the reliable-channel run
/// the same adversary would have produced without the wire layer.
Genome without_wire(const Genome& genome) {
  Genome baseline = genome;
  baseline.wire_rate_pm = 0;
  baseline.wire_kinds = sim::kAllWireMutationKinds;
  baseline.wire_types = sim::kAllWireMsgTypes;
  baseline.loss_pm = 0;
  baseline.loss_jitter = 0;
  baseline.burst_start = 0;
  baseline.burst_len = 0;
  baseline.burst_period = 0;
  return baseline;
}

/// True iff the safety break vanishes when the wire layer is stripped —
/// the evidence classify() needs before blaming the hostile wire.
bool baseline_is_clean(const Genome& genome) {
  const cup::RunReport baseline =
      cup::run_scenario(without_wire(genome).to_builder().build());
  return baseline.agreement && baseline.validity;
}

/// True iff every crash of a *correct* process has a later recover — an
/// unrecovered correct crash forfeits termination by construction (the
/// crashed process cannot decide), so such runs are excluded from liveness
/// findings. Crashes of Byzantine processes are exempt: termination is
/// judged over the correct set only, so an adversary that participates in
/// discovery and then goes permanently dark is a legitimate liveness
/// attack, not a self-inflicted non-termination.
bool crashes_all_recover(const Genome& genome) {
  for (const TimelineGene& crash : genome.timeline) {
    if (crash.kind != TimelineGene::Kind::kCrash) continue;
    if (genome.faulty.contains(crash.subject)) continue;
    const bool recovered =
        std::any_of(genome.timeline.begin(), genome.timeline.end(),
                    [&](const TimelineGene& other) {
                      return other.kind == TimelineGene::Kind::kRecover &&
                             other.subject == crash.subject &&
                             other.at > crash.at;
                    });
    if (!recovered) return false;
  }
  return true;
}

/// The last instant the environment may still be interfering: GST, the end
/// of every drop/partition window, every join, every fault-action instant.
SimTime last_disruption(const Genome& genome) {
  SimTime last = genome.gst;
  for (const TimelineGene& gene : genome.timeline) {
    last = std::max(last, gene.at);
    last = std::max(last, gene.until);
  }
  return last;
}

}  // namespace

const char* to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::kAgreement: return "agreement";
    case FindingKind::kValidity: return "validity";
    case FindingKind::kLiveness: return "liveness";
    case FindingKind::kWitness: return "witness";
    case FindingKind::kWireSafety: return "wire-safety";
  }
  return "unknown";
}

bool requirements_satisfied(const Genome& genome) {
  if (genome.mode == cup::Mode::kCupft) {
    return graph::check_bft_cupft_requirements(genome.graph, genome.faulty,
                                               genome.f)
        .satisfied;
  }
  return graph::check_bft_cup_requirements(genome.graph, genome.faulty,
                                           genome.f)
      .satisfied;
}

std::optional<Classification> classify(const Genome& genome,
                                       const cup::RunReport& report) {
  const bool satisfied = requirements_satisfied(genome);
  const bool wire = genome.wire_active();
  if (!report.agreement || !report.validity) {
    // Mutated frames may cost liveness, never safety: a safety break that
    // disappears when the wire genes are stripped (same seed, same
    // adversary) is a decode-path or verification hole, not a protocol
    // counterexample. The replay is deterministic, so the attribution is.
    if (wire && baseline_is_clean(genome)) {
      return Classification{FindingKind::kWireSafety, satisfied};
    }
    if (!report.agreement) {
      return Classification{FindingKind::kAgreement, satisfied};
    }
    return Classification{FindingKind::kValidity, satisfied};
  }
  if (report.all_correct_decided) {
    if (!satisfied && genome.mode != cup::Mode::kNaive) {
      return Classification{FindingKind::kWitness, satisfied};
    }
    return std::nullopt;
  }
  // NO-TERMINATION. Only a finding when the predicate promised solvability
  // and the run was fair (see file comment). A lossy or mutating wire
  // breaks the reliable-channel hypothesis Theorem 1 needs, so wire-active
  // runs never count as liveness findings.
  if (!satisfied || wire) return std::nullopt;
  if (genome.mode == cup::Mode::kNaive) return std::nullopt;
  if (!crashes_all_recover(genome)) return std::nullopt;
  if (genome.horizon < last_disruption(genome) + kLivenessSlack) {
    return std::nullopt;
  }
  return Classification{FindingKind::kLiveness, satisfied};
}

}  // namespace bftcup::explore
