// Experiment F4 — Fig. 4: graphs satisfying the BFT-CUPFT requirements;
// the Core algorithm discovers the core and consensus solves without f.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "graph/extended_osr.hpp"
#include "graph/figures.hpp"

namespace {

using namespace bftcup;

const cup::ScenarioRegistry& registry() {
  return cup::ScenarioRegistry::paper();
}

void print_membership(const cup::RunReport& r) {
  if (r.memberships.empty()) return;
  const auto& first = r.memberships.begin()->second;
  std::printf("    discovered core: {");
  for (ProcessId m : first) std::printf(" %s", to_string(m).c_str());
  std::printf(" }\n");
}

void print_experiment() {
  bench::print_header(
      "F4: Fig. 4 — BFT-CUPFT graphs",
      "4a: core {1,2,3,4} != full-graph sink; 4b: core = sink {8..12}; "
      "consensus solvable without f in both");

  for (const auto& [name, inst] :
       {std::pair{"fig4a", graph::figures::fig4a()},
        std::pair{"fig4b", graph::figures::fig4b()}}) {
    const auto check =
        graph::check_bft_cupft_requirements(inst.graph, inst.faulty, inst.f);
    std::printf("checker %s: %s (core k=%zu)\n", name,
                check.satisfied ? "ACCEPT" : check.reason.c_str(),
                check.core_k);

    const auto report =
        registry().run(std::string(name) + "/cupft-silent", 1);
    bench::print_row(std::string(name) + ", BFT-CUPFT silent-byz", report);
    print_membership(report);

    bench::print_row(std::string(name) + ", BFT-CUPFT fake-pd-byz",
                     registry().run(std::string(name) + "/cupft-fake-pd", 1));
  }

  // Ablation: the bridge-hiding attack on fig4a (tests/cupft_integration_test
  // Fig4aBridgeHidingFakePdAttackSplits) without and with the
  // knowledge-closure guard.
  std::printf("--- bridge-hiding fake-PD attack ablation (fig4a) ---\n");
  bench::print_row("attack, no guard",
                   registry().run("fig4a/bridge-hiding-attack", 1));
  bench::print_row("attack, closure guard",
                   registry().run("fig4a/bridge-hiding-guarded", 1));
  bench::print_row("silent-byz, closure guard (cost)",
                   registry().run("fig4a/closure-guard-cost", 1));
}

void BM_Fig4CupftEndToEnd(benchmark::State& state) {
  const std::string name =
      state.range(0) == 0 ? "fig4a/cupft-silent" : "fig4b/cupft-silent";
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = registry().run(name, seed++);
    benchmark::DoNotOptimize(report.all_correct_decided);
    state.counters["sim_ticks"] =
        static_cast<double>(report.completion_time.value_or(-1));
    state.counters["messages"] = static_cast<double>(report.messages_sent);
  }
}
BENCHMARK(BM_Fig4CupftEndToEnd)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ExtendedOsrChecker(benchmark::State& state) {
  const auto inst =
      state.range(0) == 0 ? graph::figures::fig4a() : graph::figures::fig4b();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::check_bft_cupft_requirements(inst.graph, inst.faulty, inst.f));
  }
}
BENCHMARK(BM_ExtendedOsrChecker)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
