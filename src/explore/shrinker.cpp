#include "explore/shrinker.hpp"

#include <bit>

namespace bftcup::explore {

std::vector<Genome> Shrinker::reductions(const Genome& genome) {
  std::vector<Genome> out;

  // Hostile-wire genes first: zeroing a whole dimension is the biggest
  // single step, then single mask bits. A kWireSafety target keeps at least
  // one wire gene alive by construction (reproduces() re-classifies, and a
  // wire-free genome cannot classify as wire-safety).
  if (genome.wire_rate_pm > 0) {
    Genome candidate = genome;
    candidate.wire_rate_pm = 0;
    candidate.wire_kinds = sim::kAllWireMutationKinds;
    candidate.wire_types = sim::kAllWireMsgTypes;
    out.push_back(std::move(candidate));
  }
  if (genome.wire_rate_pm > 0 && std::popcount(genome.wire_kinds) > 1) {
    for (std::uint32_t bit = 0; bit < sim::kWireMutationKindCount; ++bit) {
      if ((genome.wire_kinds & (1u << bit)) == 0) continue;
      Genome candidate = genome;
      candidate.wire_kinds &= ~(1u << bit);
      out.push_back(std::move(candidate));
    }
  }
  if (genome.wire_rate_pm > 0 && std::popcount(genome.wire_types) > 1) {
    for (std::uint32_t bit = 0; bit < msg::kMsgTypeCount; ++bit) {
      if ((genome.wire_types & (1u << bit)) == 0) continue;
      Genome candidate = genome;
      candidate.wire_types &= ~(1u << bit);
      out.push_back(std::move(candidate));
    }
  }
  if (genome.loss_pm > 0) {
    Genome candidate = genome;
    candidate.loss_pm = 0;
    out.push_back(std::move(candidate));
  }
  if (genome.loss_jitter > 0) {
    Genome candidate = genome;
    candidate.loss_jitter = 0;
    out.push_back(std::move(candidate));
  }
  if (genome.burst_len > 0) {
    Genome candidate = genome;
    candidate.burst_start = 0;
    candidate.burst_len = 0;
    candidate.burst_period = 0;
    out.push_back(std::move(candidate));
  }
  if (genome.burst_period > 0) {
    Genome candidate = genome;
    candidate.burst_period = 0;  // recurring windows -> a single window
    out.push_back(std::move(candidate));
  }

  for (std::size_t i = 0; i < genome.timeline.size(); ++i) {
    Genome candidate = genome;
    candidate.timeline.erase(candidate.timeline.begin() +
                             static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(candidate));
  }

  for (const auto& [owner, advertised] : genome.fake_pds) {
    for (ProcessId member : advertised) {
      Genome candidate = genome;
      candidate.fake_pds[owner].erase(member);
      out.push_back(std::move(candidate));
    }
  }
  for (const auto& [owner, advertised] : genome.fake_pds) {
    (void)advertised;
    Genome candidate = genome;
    candidate.fake_pds.erase(owner);
    out.push_back(std::move(candidate));
  }

  for (ProcessId member : genome.faulty) {
    Genome candidate = genome;
    candidate.faulty.erase(member);
    candidate.fake_pds.erase(member);
    out.push_back(std::move(candidate));
  }

  for (const auto& [from, to] : edges_of(genome.graph)) {
    Genome candidate = genome;
    candidate.graph = without_edge(genome.graph, from, to);
    out.push_back(std::move(candidate));
  }

  if (genome.graph.vertex_count() > 2) {
    for (ProcessId v : genome.graph.vertices()) {
      out.push_back(without_vertex(genome, v));
    }
  }

  return out;
}

bool Shrinker::reproduces(const Genome& genome,
                          const Classification& target) const {
  if (!genome.valid()) return false;
  const cup::RunReport report = context_.run(genome.to_builder().build());
  const auto classification = classify(genome, report);
  return classification.has_value() && *classification == target;
}

ShrinkOutcome Shrinker::shrink(const Genome& start,
                               const Classification& target) const {
  ShrinkOutcome outcome;
  outcome.genome = start;

  bool progressed = true;
  bool budget_hit = false;
  while (progressed) {
    progressed = false;
    for (Genome& candidate : reductions(outcome.genome)) {
      if (outcome.runs >= options_.max_runs) {
        budget_hit = true;
        break;
      }
      // Build-invalid candidates are rejected without a simulation and do
      // not charge the replay budget (reproduces re-checks validity, which
      // is cheap next to a run).
      if (!candidate.valid()) continue;
      ++outcome.runs;
      if (reproduces(candidate, target)) {
        outcome.genome = std::move(candidate);
        progressed = true;
        break;  // restart the pass from the smaller genome
      }
    }
    if (budget_hit) break;
  }
  // If the loop ended because a full pass found nothing (not because the
  // budget ran dry), no single reduction reproduces: 1-minimal.
  outcome.fixpoint = !budget_hit;
  return outcome;
}

}  // namespace bftcup::explore
