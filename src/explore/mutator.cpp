#include "explore/mutator.hpp"

#include <algorithm>

namespace bftcup::explore {
namespace {

enum class Op : std::uint8_t {
  kAddEdge,
  kRemoveEdge,
  kAddVertex,
  kRemoveVertex,
  kToggleFaulty,
  kBumpF,
  kFlipMode,
  kFlipByz,
  kFakePd,
  kTimelineAdd,
  kTimelineRemove,
  kGst,
  kDelta,
  kHorizon,
  kSeed,
  kWireRate,
  kWireMasks,
  kLoss,
  kLossBurst,
};

/// Draw table: each operator appears `weight` times. Biased toward the
/// adversary-controlled dimensions (see file comment). The order is part of
/// the determinism contract: an rng draw picks an operator by index.
constexpr Op kOpTable[] = {
    Op::kAddEdge,        Op::kAddEdge,        Op::kRemoveEdge,
    Op::kRemoveEdge,     Op::kAddVertex,      Op::kRemoveVertex,
    Op::kToggleFaulty,   Op::kToggleFaulty,   Op::kBumpF,
    Op::kFlipMode,       Op::kFlipByz,        Op::kFlipByz,
    Op::kFakePd,         Op::kFakePd,         Op::kFakePd,
    Op::kFakePd,         Op::kTimelineAdd,    Op::kTimelineAdd,
    Op::kTimelineAdd,    Op::kTimelineRemove, Op::kTimelineRemove,
    Op::kGst,            Op::kDelta,          Op::kHorizon,
    Op::kSeed,           Op::kSeed,           Op::kWireRate,
    Op::kWireRate,       Op::kWireMasks,      Op::kLoss,
    Op::kLoss,           Op::kLossBurst,
};

/// Frame-mutation rates (permille) the kWireRate operator draws from; 0
/// turns the layer back off.
constexpr std::uint32_t kWireRates[] = {0, 25, 50, 100, 250, 500};

/// Per-send drop probabilities (permille) for kLoss. Values above ~25% stop
/// most runs from terminating at all; the tail exists to probe that edge.
constexpr std::uint32_t kLossRates[] = {0, 10, 25, 50, 100, 250};

ProcessId pick(const IdSet& ids, Rng& rng) {
  return ids.values()[rng.next_below(ids.size())];
}

std::uint64_t max_raw_id(const graph::Digraph& g) {
  std::uint64_t max_raw = 0;
  for (ProcessId id : g.vertices()) max_raw = std::max(max_raw, id.raw());
  return max_raw;
}

/// A member id for fake-PD advertisement: usually a real vertex, sometimes
/// a ghost (an id nobody owns — naming non-existent processes is a real
/// attack; answering for them is not possible, §II-A).
ProcessId pick_advertisable(const graph::Digraph& g, Rng& rng) {
  if (rng.chance(0.2)) {
    return ProcessId(max_raw_id(g) + 1 + rng.next_below(3));
  }
  return pick(g.vertices(), rng);
}

void mutate_fake_pd(Genome& genome, Rng& rng) {
  if (genome.faulty.empty()) return;
  genome.byz = cup::ByzBehavior::kFakePd;
  const ProcessId owner = pick(genome.faulty, rng);
  auto it = genome.fake_pds.find(owner);
  if (it == genome.fake_pds.end()) {
    it = genome.fake_pds.emplace(owner, genome.graph.out_neighbors(owner))
             .first;
  }
  IdSet& advertised = it->second;
  if (!advertised.empty() && rng.chance(0.6)) {
    // Hide a target — the bridge-hiding family of attacks.
    advertised.erase(pick(advertised, rng));
  } else {
    advertised.insert(pick_advertisable(genome.graph, rng));
  }
}

void add_timeline_gene(Genome& genome, Rng& rng, SimTime max_window) {
  const IdSet vertices = genome.graph.vertices();
  TimelineGene gene;
  gene.at = static_cast<SimTime>(
      rng.next_below(static_cast<std::uint64_t>(max_window) + 1));
  switch (rng.next_below(5)) {
    case 0: {  // crash, usually paired with a recover
      gene.kind = TimelineGene::Kind::kCrash;
      gene.subject = pick(vertices, rng);
      genome.timeline.push_back(gene);
      if (rng.chance(0.7)) {
        TimelineGene recover;
        recover.kind = TimelineGene::Kind::kRecover;
        recover.subject = gene.subject;
        recover.at = gene.at + 1 +
                     static_cast<SimTime>(rng.next_below(
                         static_cast<std::uint64_t>(max_window) + 1));
        genome.timeline.push_back(recover);
      }
      return;
    }
    case 1:
      gene.kind = TimelineGene::Kind::kRecover;
      gene.subject = pick(vertices, rng);
      break;
    case 2: {
      gene.kind = TimelineGene::Kind::kDrop;
      gene.subject = pick(vertices, rng);
      do {
        gene.peer = pick(vertices, rng);
      } while (gene.peer == gene.subject && vertices.size() > 1);
      gene.until = gene.at + 1 +
                   static_cast<SimTime>(rng.next_below(
                       static_cast<std::uint64_t>(max_window) + 1));
      break;
    }
    case 3: {
      gene.kind = TimelineGene::Kind::kPartition;
      std::vector<ProcessId> shuffled = vertices.values();
      rng.shuffle(shuffled);
      const std::size_t a_count = 1 + rng.next_below(shuffled.size() - 1);
      for (std::size_t i = 0; i < shuffled.size(); ++i) {
        (i < a_count ? gene.group_a : gene.group_b).insert(shuffled[i]);
      }
      gene.until = gene.at + 1 +
                   static_cast<SimTime>(rng.next_below(
                       static_cast<std::uint64_t>(max_window) + 1));
      break;
    }
    default:
      gene.kind = TimelineGene::Kind::kJoin;
      gene.subject = pick(vertices, rng);
      break;
  }
  genome.timeline.push_back(gene);
}

}  // namespace

Genome Mutator::mutate_once(const Genome& parent, Rng& rng) const {
  Genome genome = parent;
  const IdSet vertices = genome.graph.vertices();
  const std::size_t n = vertices.size();
  if (n == 0) return genome;

  switch (kOpTable[rng.next_below(std::size(kOpTable))]) {
    case Op::kAddEdge: {
      const ProcessId from = pick(vertices, rng);
      const ProcessId to = pick(vertices, rng);
      genome.graph.add_edge(from, to);  // self-loops are ignored by Digraph
      break;
    }
    case Op::kRemoveEdge: {
      const auto edges = edges_of(genome.graph);
      if (edges.empty()) break;
      const auto& [from, to] = edges[rng.next_below(edges.size())];
      genome.graph = without_edge(genome.graph, from, to);
      break;
    }
    case Op::kAddVertex: {
      if (n >= kMaxVertices) break;
      const ProcessId fresh(max_raw_id(genome.graph) + 1);
      const ProcessId anchor = pick(vertices, rng);
      genome.graph.add_edge(fresh, anchor);
      if (rng.chance(0.5)) genome.graph.add_edge(anchor, fresh);
      break;
    }
    case Op::kRemoveVertex: {
      if (n <= 3) break;
      genome = without_vertex(genome, pick(vertices, rng));
      break;
    }
    case Op::kToggleFaulty: {
      const ProcessId v = pick(vertices, rng);
      if (genome.faulty.contains(v)) {
        genome.faulty.erase(v);
        genome.fake_pds.erase(v);
      } else {
        genome.faulty.insert(v);
      }
      break;
    }
    case Op::kBumpF: {
      if (rng.chance(0.5)) {
        ++genome.f;
      } else if (genome.f > 1) {
        --genome.f;
      }
      break;
    }
    case Op::kFlipMode: {
      constexpr cup::Mode kModes[] = {cup::Mode::kAuth, cup::Mode::kCupft,
                                      cup::Mode::kNaive};
      genome.mode = kModes[rng.next_below(std::size(kModes))];
      break;
    }
    case Op::kFlipByz: {
      constexpr cup::ByzBehavior kBehaviors[] = {
          cup::ByzBehavior::kSilent, cup::ByzBehavior::kFakePd,
          cup::ByzBehavior::kEquivocate, cup::ByzBehavior::kWrongValue};
      genome.byz = kBehaviors[rng.next_below(std::size(kBehaviors))];
      if (genome.byz != cup::ByzBehavior::kFakePd) {
        genome.fake_pds.clear();
      } else {
        mutate_fake_pd(genome, rng);
      }
      break;
    }
    case Op::kFakePd:
      mutate_fake_pd(genome, rng);
      break;
    case Op::kTimelineAdd:
      if (genome.timeline.size() >= kMaxTimeline) break;
      add_timeline_gene(genome, rng, genome.horizon / 8);
      break;
    case Op::kTimelineRemove: {
      if (genome.timeline.empty()) break;
      genome.timeline.erase(genome.timeline.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.next_below(genome.timeline.size())));
      break;
    }
    case Op::kGst:
      genome.gst = static_cast<SimTime>(
          rng.next_below(static_cast<std::uint64_t>(kMaxGst) + 1));
      break;
    case Op::kDelta:
      genome.delta = 1 + static_cast<SimTime>(rng.next_below(
                             static_cast<std::uint64_t>(kMaxDelta)));
      break;
    case Op::kHorizon:
      genome.horizon = rng.chance(0.5) ? genome.horizon * 2 : genome.horizon / 2;
      genome.horizon = std::clamp(genome.horizon, kMinHorizon, kMaxHorizon);
      break;
    case Op::kSeed:
      genome.seed = 1 + rng.next_below(1'000'000);
      break;
    case Op::kWireRate:
      genome.wire_rate_pm = kWireRates[rng.next_below(std::size(kWireRates))];
      break;
    case Op::kWireMasks: {
      // Masks are inert at rate 0 (to_line would not even serialize them),
      // so mask mutation implies turning the layer on.
      if (genome.wire_rate_pm == 0) genome.wire_rate_pm = 100;
      if (rng.chance(0.5)) {
        genome.wire_kinds = static_cast<std::uint32_t>(
            1 + rng.next_below(sim::kAllWireMutationKinds));
      } else {
        genome.wire_types = static_cast<std::uint32_t>(
            1 + rng.next_below(sim::kAllWireMsgTypes));
      }
      break;
    }
    case Op::kLoss:
      genome.loss_pm = kLossRates[rng.next_below(std::size(kLossRates))];
      genome.loss_jitter =
          static_cast<SimTime>(rng.next_below(3)) * genome.delta;
      break;
    case Op::kLossBurst:
      if (genome.burst_len > 0) {
        genome.burst_start = 0;
        genome.burst_len = 0;
        genome.burst_period = 0;
      } else {
        const SimTime window = std::max<SimTime>(genome.horizon / 8, 1);
        genome.burst_start = static_cast<SimTime>(
            rng.next_below(static_cast<std::uint64_t>(window) + 1));
        genome.burst_len =
            1 + static_cast<SimTime>(
                    rng.next_below(static_cast<std::uint64_t>(window)));
        genome.burst_period =
            rng.chance(0.5)
                ? 0
                : genome.burst_len +
                      static_cast<SimTime>(rng.next_below(
                          static_cast<std::uint64_t>(window) + 1));
      }
      break;
  }
  return genome;
}

std::optional<Genome> Mutator::mutate(const Genome& parent, Rng& rng) const {
  const std::string parent_line = parent.to_line();
  for (std::size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Genome candidate = mutate_once(parent, rng);
    if (candidate.graph.vertex_count() > kMaxVertices) continue;
    if (candidate.timeline.size() > kMaxTimeline) continue;
    if (candidate.horizon < kMinHorizon || candidate.horizon > kMaxHorizon) {
      continue;
    }
    if (candidate.to_line() == parent_line) continue;
    if (!candidate.valid()) continue;
    return candidate;
  }
  return std::nullopt;
}

}  // namespace bftcup::explore
