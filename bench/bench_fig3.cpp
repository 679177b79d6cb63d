// Experiment F3 — Fig. 3 / Observation 1: non-sink members can declare
// themselves a sink when f is unknown; with the true f the predicate and the
// protocol stay correct.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "graph/figures.hpp"
#include "protocol/sink_predicate.hpp"

namespace {

using namespace bftcup;

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

void print_experiment() {
  bench::print_header(
      "F3: Fig. 3 — false sink declarations (Observation 1)",
      "isSink(2,{1,2,3,4,6},{5,7}) = true on fig3a although its real sink "
      "is {5,7,8} with f=1");

  const auto a = graph::figures::fig3a();

  const auto view_a = protocol::KnowledgeView::omniscient(a.graph);
  const IdSet s1 = {p(1), p(2), p(3), p(4), p(6)};
  std::printf("isSink(2, {1,2,3,4,6}, {5,7}) on fig3a : %s (paper: true)\n",
              protocol::is_sink(view_a, 2, s1, IdSet{p(5), p(7)}) ? "true"
                                                                  : "false");
  std::printf(
      "isSink(1, {1,2,3,4,6}, ...) on fig3a  : %s "
      "(FINDING: passes even at the true f — see "
      "tests/consensus_integration_test.cpp)\n",
      protocol::is_sink(view_a, 1, s1).has_value() ? "true" : "false");
  std::printf("isSink(1, {5,7,8}, {}) on fig3a       : %s (the real sink)\n",
              protocol::is_sink(view_a, 1, IdSet{p(5), p(7), p(8)}, IdSet{})
                  ? "true"
                  : "false");

  const auto& registry = cup::ScenarioRegistry::paper();
  // Known-f run on fig3a: all processes settle on {5,7,8}.
  bench::print_row("fig3a, known f=1", registry.run("fig3a/auth", 1));
  // Unknown-f (correct protocol) on fig3a: must not decide — tie at k=2.
  bench::print_row("fig3a, BFT-CUPFT", registry.run("fig3a/cupft", 1));
  // fig3b (the indistinguishable 3-OSR system): solvable both ways.
  bench::print_row("fig3b, known f=2", registry.run("fig3b/auth", 1));
  bench::print_row("fig3b, BFT-CUPFT", registry.run("fig3b/cupft", 1));
}

void BM_IsSinkOnFig3a(benchmark::State& state) {
  const auto view =
      protocol::KnowledgeView::omniscient(graph::figures::fig3a().graph);
  const IdSet s1 = {p(1), p(2), p(3), p(4), p(6)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::is_sink(view, 2, s1));
  }
}
BENCHMARK(BM_IsSinkOnFig3a);

void BM_IsSinkStarOnFig3a(benchmark::State& state) {
  const auto view =
      protocol::KnowledgeView::omniscient(graph::figures::fig3a().graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protocol::is_sink_star(view, IdSet{p(5), p(7), p(8)}));
  }
}
BENCHMARK(BM_IsSinkStarOnFig3a);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
