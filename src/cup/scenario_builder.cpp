#include "cup/scenario_builder.hpp"

#include <utility>

namespace bftcup::cup {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw ScenarioError("ScenarioBuilder: " + what);
}

/// A probability check NaN fails: every comparison with NaN is false, so
/// the range test is written as the condition that must hold.
bool in_unit_interval(double p) {
  return p >= 0.0 && p <= 1.0;
}

}  // namespace

ScenarioBuilder::ScenarioBuilder(graph::Digraph g) {
  scenario_.graph = std::move(g);
}

ScenarioBuilder::ScenarioBuilder(const graph::figures::Instance& instance) {
  scenario_.graph = instance.graph;
  scenario_.faulty = instance.faulty;
  scenario_.f = instance.f;
}

ScenarioBuilder::ScenarioBuilder(
    const graph::generators::GeneratedSystem& system) {
  scenario_.graph = system.graph;
  scenario_.faulty = system.faulty;
  scenario_.f = system.f;
}

ScenarioBuilder& ScenarioBuilder::graph(graph::Digraph g) {
  scenario_.graph = std::move(g);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::mode(Mode mode) {
  scenario_.mode = mode;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::byz(ByzBehavior behavior) {
  scenario_.byz = behavior;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::faulty(IdSet ids) {
  scenario_.faulty = std::move(ids);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::faulty(
    std::initializer_list<std::uint64_t> raw_ids) {
  IdSet ids;
  for (std::uint64_t raw : raw_ids) ids.insert(ProcessId(raw));
  scenario_.faulty = std::move(ids);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::f(std::size_t f) {
  scenario_.f = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  scenario_.sim.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::gst(SimTime gst) {
  scenario_.sim.net.gst = gst;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::delta(SimTime delta) {
  scenario_.sim.net.delta = delta;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::horizon(SimTime horizon) {
  scenario_.sim.horizon = horizon;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::proposal(ProcessId id, Value value) {
  scenario_.proposals[id] = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::propose_range(std::uint64_t first,
                                                std::uint64_t last,
                                                Value value) {
  for (std::uint64_t raw = first; raw <= last; ++raw) {
    scenario_.proposals[ProcessId(raw)] = value;
  }
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fake_pd(ProcessId id, IdSet advertised) {
  scenario_.fake_pds[id] = std::move(advertised);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::crash_at(ProcessId p, SimTime at) {
  scenario_.timeline.crash(p, at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::recover_at(ProcessId p, SimTime at) {
  scenario_.timeline.recover(p, at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::drop_link(ProcessId from, ProcessId to,
                                            SimTime at, SimTime up_at) {
  if (up_at <= at) {
    fail("drop_link window [" + std::to_string(at) + ", " +
         std::to_string(up_at) + ") is empty");
  }
  scenario_.timeline.link_down(from, to, at, up_at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::partition(IdSet group_a, IdSet group_b,
                                            SimTime at, SimTime heal_at) {
  if (heal_at <= at) {
    fail("partition window [" + std::to_string(at) + ", " +
         std::to_string(heal_at) + ") is empty");
  }
  scenario_.timeline.partition(std::move(group_a), std::move(group_b), at,
                               heal_at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::join_at(ProcessId p, SimTime at) {
  scenario_.timeline.join(p, at);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault_timeline(sim::FaultTimeline timeline) {
  scenario_.timeline = std::move(timeline);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::wire_mutation(double rate,
                                                std::uint32_t kind_mask,
                                                std::uint32_t type_mask,
                                                std::uint64_t wire_seed) {
  scenario_.sim.wire.enabled = true;
  scenario_.sim.wire.rate = rate;
  scenario_.sim.wire.kind_mask = kind_mask;
  scenario_.sim.wire.type_mask = type_mask;
  scenario_.sim.wire.seed = wire_seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::loss(double drop_p, SimTime jitter) {
  scenario_.loss.enabled = true;
  scenario_.loss.drop_p = drop_p;
  scenario_.loss.jitter = jitter;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::loss_burst(SimTime start, SimTime len,
                                             SimTime period, double drop_p) {
  scenario_.loss.enabled = true;
  scenario_.loss.burst_start = start;
  scenario_.loss.burst_len = len;
  scenario_.loss.burst_period = period;
  scenario_.loss.burst_drop_p = drop_p;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::discovery_period(SimTime period) {
  scenario_.discovery_period = period;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pbft_base_timeout(SimTime timeout) {
  scenario_.pbft_base_timeout = timeout;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::delay_policy(
    std::function<std::unique_ptr<sim::DelayPolicy>()> make) {
  scenario_.make_policy = std::move(make);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::search(
    std::shared_ptr<const protocol::SinkSearch> search) {
  scenario_.search = std::move(search);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::closure_guard(bool enabled) {
  scenario_.cupft_known_closure = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::eval_cache(bool enabled) {
  scenario_.eval_cache = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::caching(bool enabled) {
  scenario_.eval_cache = enabled;
  scenario_.sim.verify_cache = enabled;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tracing(bool enabled) {
  scenario_.trace_capacity = enabled ? kDefaultTraceCapacity : 0;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::trace_capacity(std::size_t records) {
  scenario_.trace_capacity = records;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::allow_premise_violation(bool allowed) {
  allow_premise_violation_ = allowed;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  const Scenario& s = scenario_;
  if (s.graph.vertex_count() == 0) {
    fail("the knowledge connectivity graph has no vertices");
  }
  const IdSet vertices = s.graph.vertices();
  if (!s.faulty.is_subset_of(vertices)) {
    for (ProcessId id : s.faulty) {
      if (!vertices.contains(id)) {
        fail("faulty process " + to_string(id) + " is not a graph vertex");
      }
    }
  }
  if (s.f >= s.graph.vertex_count()) {
    fail("f = " + std::to_string(s.f) + " is not consistent with a " +
         std::to_string(s.graph.vertex_count()) + "-process graph");
  }
  if (s.mode == Mode::kAuth && s.faulty.size() > s.f &&
      !allow_premise_violation_) {
    fail("|faulty| = " + std::to_string(s.faulty.size()) +
         " exceeds f = " + std::to_string(s.f) +
         " in known-f mode; call allow_premise_violation() if this witness "
         "scenario is intentional");
  }
  for (const auto& [id, value] : s.proposals) {
    (void)value;
    if (!vertices.contains(id)) {
      fail("proposal for " + to_string(id) + ", which is not a graph vertex");
    }
  }
  // Fake PD *members* are deliberately unvalidated: advertising ghost
  // processes that do not exist is a real attack (Sybil resistance means
  // they cannot answer, not that they cannot be named).
  for (const auto& [id, pd] : s.fake_pds) {
    (void)pd;
    if (!s.faulty.contains(id)) {
      fail("fake PD for " + to_string(id) + ", which is not faulty");
    }
  }
  if (!s.fake_pds.empty() && s.byz != ByzBehavior::kFakePd) {
    fail("fake PDs are set but the Byzantine behavior is not kFakePd");
  }
  for (const sim::FaultAction& action : s.timeline.actions()) {
    if (action.at < 0) {
      fail(std::string(to_string(action.kind)) +
           " fault action scheduled at negative time");
    }
    switch (action.kind) {
      case sim::FaultAction::Kind::kCrash:
      case sim::FaultAction::Kind::kRecover:
      case sim::FaultAction::Kind::kJoin:
        if (!vertices.contains(action.subject)) {
          fail(std::string(to_string(action.kind)) + " fault action targets " +
               to_string(action.subject) + ", which is not a graph vertex");
        }
        break;
      case sim::FaultAction::Kind::kLinkDown:
      case sim::FaultAction::Kind::kLinkUp:
        if (!vertices.contains(action.subject) ||
            !vertices.contains(action.peer)) {
          fail("link fault action references a non-vertex endpoint");
        }
        break;
      case sim::FaultAction::Kind::kPartition:
      case sim::FaultAction::Kind::kHeal:
        if (!action.group_a.is_subset_of(vertices) ||
            !action.group_b.is_subset_of(vertices)) {
          fail("partition groups must be subsets of the graph vertices");
        }
        if (!action.group_a.set_intersection(action.group_b).empty()) {
          fail("partition groups must be disjoint");
        }
        break;
    }
  }
  if (s.sim.wire.enabled) {
    if (!in_unit_interval(s.sim.wire.rate)) {
      fail("wire mutation rate must be in [0, 1]");
    }
    if (s.sim.wire.kind_mask == 0 ||
        (s.sim.wire.kind_mask & ~sim::kAllWireMutationKinds) != 0) {
      fail("wire kind_mask must be a non-empty subset of the mutation kinds");
    }
    if (s.sim.wire.type_mask == 0 ||
        (s.sim.wire.type_mask & ~sim::kAllWireMsgTypes) != 0) {
      fail("wire type_mask must be a non-empty subset of the message types");
    }
  }
  if (s.loss.enabled) {
    if (!in_unit_interval(s.loss.drop_p)) {
      fail("loss drop probability must be in [0, 1]");
    }
    if (!in_unit_interval(s.loss.burst_drop_p)) {
      fail("burst drop probability must be in [0, 1]");
    }
    if (s.loss.jitter < 0) fail("loss jitter must be non-negative");
    if (s.loss.burst_start < 0 || s.loss.burst_len < 0 ||
        s.loss.burst_period < 0) {
      fail("burst loss window parameters must be non-negative");
    }
  }
  if (s.discovery_period <= 0) fail("discovery_period must be positive");
  if (s.pbft_base_timeout <= 0) fail("pbft_base_timeout must be positive");
  if (s.sim.horizon <= 0) fail("horizon must be positive");
  if (s.sim.net.delta <= 0) fail("delta must be positive");
  if (s.sim.net.gst < 0) fail("gst must be non-negative");
  return scenario_;
}

RunReport ScenarioBuilder::run() const {
  return run_scenario(build());
}

}  // namespace bftcup::cup
