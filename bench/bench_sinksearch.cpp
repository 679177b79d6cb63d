// Experiment P2 — sink/core candidate-search cost: exhaustive vs structured
// strategies, and the underlying κ computations, as sink size grows.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "graph/generators.hpp"
#include "protocol/core.hpp"
#include "protocol/sink_search.hpp"

namespace {

using namespace bftcup;

protocol::KnowledgeView view_for(std::size_t core_size, std::uint64_t seed) {
  Rng rng(seed);
  graph::generators::CupftParams params;
  params.f = 1;
  params.core_size = core_size;
  params.periphery = 4;
  params.byzantine_in_core = 1;
  const auto sys = graph::generators::random_cupft(params, rng);
  return protocol::KnowledgeView::omniscient(sys.graph);
}

void print_experiment() {
  std::printf("\n=== P2: candidate search ablation ===\n");
  std::printf("%10s %12s | %12s %12s\n", "core size", "strategy",
              "candidates", "core found");
  for (std::size_t core : {4, 5, 6, 8, 10}) {
    const auto view = view_for(core, 3);
    for (const char* which : {"exhaustive", "structured"}) {
      std::unique_ptr<protocol::SinkSearch> search;
      if (which[0] == 'e') {
        search = std::make_unique<protocol::ExhaustiveSinkSearch>();
      } else {
        search = std::make_unique<protocol::StructuredSinkSearch>();
      }
      const auto candidates = search->candidates(view);
      const auto found = protocol::try_find_core(view, *search);
      std::printf("%10zu %12s | %12zu %12s\n", core, which, candidates.size(),
                  found ? "yes" : "no");
    }
  }
}

template <typename Strategy>
void BM_Search(benchmark::State& state) {
  const auto view = view_for(static_cast<std::size_t>(state.range(0)), 3);
  const Strategy search;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.candidates(view));
  }
}
BENCHMARK_TEMPLATE(BM_Search, protocol::ExhaustiveSinkSearch)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10);
BENCHMARK_TEMPLATE(BM_Search, protocol::StructuredSinkSearch)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(14);

void BM_TryFindCore(benchmark::State& state) {
  const auto view = view_for(static_cast<std::size_t>(state.range(0)), 3);
  const protocol::ExhaustiveSinkSearch search;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::try_find_core(view, search));
  }
}
BENCHMARK(BM_TryFindCore)->Arg(4)->Arg(6)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
