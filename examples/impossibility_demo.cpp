// Theorem 7, live: why BFT-CUP graphs are NOT enough when f is unknown.
//
// Runs the naive unknown-f protocol on the proof's three systems (all
// registry scenarios):
//   A  (Fig. 2a): {1..4}, 4 silent        -> decides v
//   B  (Fig. 2b): {5..8}, 5 silent        -> decides u
//   AB (Fig. 2c): all correct, bridge slow -> A-half decides v, B-half u:
//                                             AGREEMENT VIOLATED
// then the fixed BFT-CUPFT protocol on AB (waits — safety preserved) and on
// Fig. 4a (solves — the graph the extended model requires).
//
// Exits 1 unless every run ends with the verdict Theorem 7 predicts, so the
// demo doubles as a check of the theorem's executable witness.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "cup/scenario_registry.hpp"

namespace {

using namespace bftcup;

/// Prints the run's verdict and decisions; true iff the verdict is
/// `expected`.
bool check(const char* name, const cup::RunReport& r, const char* expected) {
  const std::string verdict = r.verdict();
  std::printf("%-28s -> %-19s", name, verdict.c_str());
  if (!r.decisions.empty()) {
    std::printf(" decisions:");
    for (const auto& [who, d] : r.decisions) {
      std::printf(" %s=%" PRIu64, to_string(who).c_str(), d.value);
    }
  }
  std::printf("\n");
  if (verdict == expected) return true;
  std::printf("  expected %s\n", expected);
  return false;
}

}  // namespace

int main() {
  const auto& registry = cup::ScenarioRegistry::paper();

  bool ok = check("system A (naive)", registry.run("fig2/system-a-naive", 9),
                  "SOLVED");
  ok &= check("system B (naive)", registry.run("fig2/system-b-naive", 9),
              "SOLVED");
  ok &= check("system AB (naive)", registry.run("fig2/system-ab-naive", 9),
              "AGREEMENT-VIOLATED");
  ok &= check("system AB (BFT-CUPFT)",
              registry.run("fig2/system-ab-cupft", 9), "NO-TERMINATION");
  ok &= check("fig. 4a (BFT-CUPFT)", registry.run("fig4a/cupft-silent", 9),
              "SOLVED");

  std::printf(
      "\nTakeaway: without f, BFT-CUP-grade knowledge lets disjoint groups\n"
      "decide independently; the extended (core-based) graphs of BFT-CUPFT\n"
      "restore safety, trading liveness on insufficient topologies.\n");
  return ok ? 0 : 1;
}
