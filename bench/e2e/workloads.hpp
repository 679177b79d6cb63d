// The benchmark's four workloads (README.md "Workloads"). Each one turns the
// benchmark seed into the fixed point set of one pass; a pass is one
// BatchRunner::run over it, repeated until the run's time is spent.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cup/batch_runner.hpp"

namespace bftcup::e2e {

struct Workload {
  const char* name;
  /// Closed-loop worker threads of one pass, before clamping to the host.
  std::size_t max_threads;
  /// The hostile wire voids liveness (README "Hostile wire"), so only an
  /// agreement or validity break counts as a failed run there.
  bool safety_only;
  /// One pass's points for `seed`. `smoke` shrinks the pass to a size that
  /// still supports a p99 (run.py --smoke). Calls into the library open the
  /// harness spans "graph.generate" and "cup.build".
  std::vector<cup::SweepPoint> (*make_points)(std::uint64_t seed, bool smoke);
};

/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace bftcup::e2e
