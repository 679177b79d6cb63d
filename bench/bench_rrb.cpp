// Experiment P4 — signed vs unsigned discovery ablation.
//
// The original BFT-CUP delivers a PD only after receiving it over > f
// node-disjoint paths (reachable reliable broadcast); the authenticated
// variant (Section III) accepts a single signed copy. Same topology, same
// schedule: compare traffic and delivered knowledge.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "graph/figures.hpp"
#include "graph/generators.hpp"
#include "protocol/discovery.hpp"
#include "protocol/rrb.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace bftcup;

struct Counters {
  std::size_t pds_delivered = 0;
  std::uint64_t path_checks = 0;
};

class SignedDiscoveryProcess : public sim::Process {
 public:
  SignedDiscoveryProcess(ProcessId id, IdSet pd, Counters* counters)
      : sim::Process(id), discovery_(id, std::move(pd), 50),
        counters_(counters) {}

  void on_start(sim::Context& ctx) override { discovery_.start(ctx); }
  void on_message(ProcessId from, const msg::Message& m,
                  sim::Context& ctx) override {
    const std::size_t before = discovery_.view().received().size();
    discovery_.handle_message(from, m, ctx);
    counters_->pds_delivered += discovery_.view().received().size() - before;
  }
  void on_timer(int kind, sim::Context& ctx) override {
    if ((kind & 0xff) == protocol::Discovery::kTimerKind) {
      discovery_.on_timer(kind, ctx);
    }
  }

 private:
  protocol::Discovery discovery_;
  Counters* counters_;
};

class RrbProcess : public sim::Process {
 public:
  RrbProcess(ProcessId id, IdSet pd, std::size_t f, Counters* counters)
      : sim::Process(id), rrb_(id, std::move(pd), f, 500),
        counters_(counters) {}

  void on_start(sim::Context& ctx) override { rrb_.start(ctx); }
  void on_message(ProcessId from, const msg::Message& m,
                  sim::Context& ctx) override {
    if (rrb_.handle_message(from, m, ctx)) ++counters_->pds_delivered;
    counters_->path_checks = rrb_.path_checks();
  }
  void on_timer(int, sim::Context&) override { rrb_.stop(); }

 private:
  protocol::RrbDiscovery rrb_;
  Counters* counters_;
};

struct Result {
  std::uint64_t messages;
  std::uint64_t bytes;
  std::size_t pds_delivered;
  std::uint64_t path_checks;
};

Result run(const graph::Digraph& g, const IdSet& silent, std::size_t f,
           bool signed_variant, SimTime horizon = 20'000) {
  sim::Simulator::Options options;
  options.horizon = horizon;
  options.net.delta = 10;
  sim::Simulator simulator(options);
  Counters counters;
  for (ProcessId id : g.vertices()) {
    if (silent.contains(id)) continue;  // silent Byzantine: absent
    if (signed_variant) {
      simulator.add_process(std::make_unique<SignedDiscoveryProcess>(
          id, g.out_neighbors(id), &counters));
    } else {
      simulator.add_process(
          std::make_unique<RrbProcess>(id, g.out_neighbors(id), f, &counters));
    }
  }
  simulator.run();
  return {simulator.trace().messages_sent(), simulator.trace().bytes_sent(),
          counters.pds_delivered, counters.path_checks};
}

void print_experiment() {
  std::printf("\n=== P4: signed vs unsigned (RRB) discovery ===\n");
  std::printf("%18s %10s | %10s %10s %12s %12s\n", "topology", "variant",
              "messages", "bytes", "pds-delivrd", "path-checks");
  Rng rng(3);
  graph::generators::BftCupParams params;
  params.f = 1;
  params.sink_size = 5;
  params.non_sink = 5;
  params.byzantine_in_sink = 1;
  const auto sys = graph::generators::random_bft_cup(params, rng);

  for (const auto& [name, g, silent, f] :
       {std::tuple{"fig1b", graph::figures::fig1b().graph,
                   graph::figures::fig1b().faulty, std::size_t{1}},
        std::tuple{"random(n=10,f=1)", sys.graph, sys.faulty,
                   std::size_t{1}}}) {
    for (bool signed_variant : {true, false}) {
      const Result r = run(g, silent, f, signed_variant);
      std::printf("%18s %10s | %10llu %10llu %12zu %12llu\n", name,
                  signed_variant ? "signed" : "rrb",
                  static_cast<unsigned long long>(r.messages),
                  static_cast<unsigned long long>(r.bytes), r.pds_delivered,
                  static_cast<unsigned long long>(r.path_checks));
    }
  }
}

void BM_Discovery(benchmark::State& state) {
  const bool signed_variant = state.range(0) == 0;
  const auto inst = graph::figures::fig1b();
  for (auto _ : state) {
    const Result r = run(inst.graph, inst.faulty, inst.f, signed_variant);
    benchmark::DoNotOptimize(r.pds_delivered);
    state.counters["messages"] = static_cast<double>(r.messages);
    state.counters["delivered"] = static_cast<double>(r.pds_delivered);
  }
}
BENCHMARK(BM_Discovery)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
