#include "workloads.hpp"

#include <array>
#include <optional>
#include <string>

#include "common/random.hpp"
#include "cup/scenario_registry.hpp"
#include "graph/generators.hpp"
#include "obs/span_tracer.hpp"
#include "protocol/sink_search.hpp"

namespace bftcup::e2e {
namespace {

// The registry scenarios that always solve, named one by one so a scenario
// added to the registry later cannot silently change this workload.
constexpr std::array<const char*, 36> kPaperSweep = {
    "fig1b/fake-pd",
    "fig1b/silent",
    "fig1b/wrong-value",
    "fig3b/auth",
    "fig3b/cupft",
    "fig4a/cupft-fake-pd",
    "fig4a/cupft-silent",
    "fig4b/cupft-fake-pd",
    "fig4b/cupft-silent",
    "price-of-f/core5-peri10/auth",
    "price-of-f/core5-peri10/cupft",
    "price-of-f/core5-peri3/auth",
    "price-of-f/core5-peri3/cupft",
    "price-of-f/core5-peri6/auth",
    "price-of-f/core5-peri6/cupft",
    "price-of-f/core7-peri10/auth",
    "price-of-f/core7-peri10/cupft",
    "price-of-f/core7-peri3/auth",
    "price-of-f/core7-peri3/cupft",
    "price-of-f/core7-peri6/auth",
    "price-of-f/core7-peri6/cupft",
    "table1/sync/known-n-known-f",
    "table1/sync/unknown-n-known-f",
    "table1/sync/unknown-n-unknown-f",
    "table1/partial-sync/known-n-known-f",
    "table1/partial-sync/unknown-n-known-f",
    "table1/partial-sync/unknown-n-unknown-f",
    "adhoc/f1",
    "adhoc/f2",
    "blockchain/committee",
    "quickstart/fig1b-auth",
    "dyn/crash-mid-consensus",
    "dyn/crash-mid-discovery",
    "dyn/link-flap",
    "dyn/partition-heal-before-gst",
    "dyn/staggered-join",
};

// The 7-core price-of-f family, run by paper-sweep with a clean wire. Under
// mutation a lost frame can leave discovery polling until the horizon: a
// message storm that never decides. The smaller and partially synchronous
// scenarios storm often enough that one run carried up to 48% of a pass's
// work.
constexpr std::array<const char*, 6> kHostileWire = {
    "price-of-f/core7-peri3/auth",  "price-of-f/core7-peri3/cupft",
    "price-of-f/core7-peri6/auth",  "price-of-f/core7-peri6/cupft",
    "price-of-f/core7-peri10/auth", "price-of-f/core7-peri10/cupft",
};
// Every delivery is encoded and decoded at any rate above 0; the rate only
// sets how many frames are perturbed. At 1% about three runs in 1,000
// stormed or needed many more discovery rounds (up to 5,600 messages
// against ~320), so bytes per run differed by 9% between seed windows. At
// 0.1% none of 36,000 sampled runs stormed or decided after tick 73.
constexpr double kWireMutationRate = 0.001;
// A storm at the default horizon of 1,000,000 ticks sends about 400,000
// messages: one in a pass would triple its message count. Stopped here, far
// past every decision seen, it costs a few slow runs' worth.
constexpr SimTime kWireHorizon = 5000;

cup::Scenario build(const cup::ScenarioBuilder& builder) {
  const obs::ScopedSpan span("cup.build");
  return builder.build();
}

/// Sweep::add(registry, name) with the harness spans around the registry's
/// factory (which generates the graph) and the builder's validation.
cup::Sweep::Factory registry_factory(const char* name, double wire_rate) {
  return [name, wire_rate](std::uint64_t seed) {
    std::optional<cup::ScenarioBuilder> builder;
    {
      const obs::ScopedSpan span("graph.generate");
      builder.emplace(cup::ScenarioRegistry::paper().builder(name, seed));
    }
    builder->seed(seed);
    if (wire_rate > 0) builder->wire_mutation(wire_rate).horizon(kWireHorizon);
    return build(*builder);
  };
}

std::vector<cup::SweepPoint> paper_sweep(std::uint64_t seed, bool smoke) {
  cup::Sweep sweep;
  for (const char* name : kPaperSweep) {
    sweep.add(name, registry_factory(name, 0));
  }
  return sweep.seeds(seed, smoke ? 4 : 200).expand();
}

/// An 8-clique core plus a periphery of directed 3-cycles whose members
/// each point at two core members: one big SCC the exhaustive search must
/// find and many small ones it must reject. bench/bench_util.hpp builds the
/// same graph for the micro-benches. This copy is deliberate: every input of
/// this benchmark is defined in its own directory, so an edit to the
/// micro-benches' helper cannot change the workload a later commit is
/// compared on.
graph::Digraph sharded_graph(std::size_t n) {
  constexpr std::uint64_t kCore = 8;
  graph::Digraph g;
  for (std::uint64_t a = 1; a <= kCore; ++a) {
    for (std::uint64_t b = 1; b <= kCore; ++b) {
      if (a != b) g.add_edge(ProcessId(a), ProcessId(b));
    }
  }
  for (std::uint64_t base = kCore + 1; base + 2 <= n; base += 3) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      const std::uint64_t id = base + k;
      g.add_edge(ProcessId(id), ProcessId(base + (k + 1) % 3));
      g.add_edge(ProcessId(id), ProcessId(id % kCore + 1));
      g.add_edge(ProcessId(id), ProcessId((id + 3) % kCore + 1));
    }
  }
  return g;
}

std::vector<cup::SweepPoint> cupft_sharded(std::uint64_t seed, bool smoke) {
  graph::Digraph g;
  {
    const obs::ScopedSpan span("graph.generate");
    g = sharded_graph(128);
  }
  cup::Sweep sweep;
  sweep.add("cupft-sharded-128", [g](std::uint64_t run_seed) {
    return build(cup::ScenarioBuilder(g)
                     .mode(cup::Mode::kCupft)
                     .horizon(400000)
                     .seed(run_seed));
  });
  return sweep.seeds(seed, smoke ? 10 : 300).expand();
}

/// bench_scale's large-n recipe: authenticated mode, structured search with
/// a removal budget of one and four big-SCC samples, and no eval memo
/// (every view of a 10k-node run is distinct, so the memo only costs).
std::vector<cup::SweepPoint> scale_committees(std::uint64_t seed, bool smoke) {
  graph::generators::GeneratedSystem system;
  graph::generators::HierarchyParams params;
  params.total = smoke ? 2000 : 10000;
  {
    const obs::ScopedSpan span("graph.generate");
    Rng rng(seed);
    system = graph::generators::committee_of_committees(params, rng);
  }
  // The generator draws the silent faulty root member at random. When it
  // draws process 1, the primary of PBFT's first view, the run needs a view
  // change: it decides at tick ~640 instead of ~70 and sends 15 times the
  // messages (one seed in seven). Pinning the faulty member to the root's
  // last one keeps every seed on the same path; the seed still shapes the
  // committee tree and the simulation.
  system.faulty = {ProcessId(params.root_size)};
  protocol::SearchOptions options;
  options.removal_cap = 1;
  options.big_scc_samples = 4;
  cup::SweepPoint point;
  point.scenario = "committees-" + std::to_string(system.graph.vertex_count());
  point.seed = seed;
  point.config = build(
      cup::ScenarioBuilder(system)
          .mode(cup::Mode::kAuth)
          .seed(seed)
          .search(std::make_shared<protocol::StructuredSinkSearch>(options))
          .eval_cache(false));
  std::vector<cup::SweepPoint> points;
  points.push_back(std::move(point));
  return points;
}

std::vector<cup::SweepPoint> hostile_wire(std::uint64_t seed, bool smoke) {
  cup::Sweep sweep;
  for (const char* name : kHostileWire) {
    sweep.add(std::string(name) + "/wire",
              registry_factory(name, kWireMutationRate));
  }
  return sweep.seeds(seed, smoke ? 16 : 200).expand();
}

constexpr std::array<Workload, 4> kWorkloads = {{
    {"paper-sweep", 4, false, paper_sweep},
    {"cupft-sharded", 4, false, cupft_sharded},
    {"scale-committees-10k", 1, false, scale_committees},
    {"hostile-wire", 4, true, hostile_wire},
}};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace bftcup::e2e
