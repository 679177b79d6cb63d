// The coverage-guided exploration loop.
//
// Generation 0 runs the seed genomes; every later generation mutates
// corpus members, executes the whole population hardware-parallel through
// the BatchRunner pool, and admits mutants whose runs land in unseen
// coverage classes. Runs that trip the oracle become findings, deduplicated
// by (kind, coverage class), optionally delta-debugged to 1-minimal repros,
// and exportable as registry scenarios under `explored/...`.
//
// Determinism contract (asserted by explorer_test and the CI smoke job):
// for a fixed master seed and fixed options, the result — corpus contents,
// findings, names, digests — is byte-identical across repeated runs and
// across BatchRunner thread counts. All randomness is forked from the
// master seed per (generation, slot) before any run executes, corpus
// updates are applied in slot order after each generation's batch returns,
// and shrinking replays serially.
#pragma once

#include "cup/scenario_registry.hpp"
#include "explore/coverage.hpp"
#include "explore/mutator.hpp"
#include "explore/oracle.hpp"
#include "explore/shrinker.hpp"

namespace bftcup::explore {

struct ExplorerOptions {
  std::uint64_t master_seed = 1;
  std::size_t generations = 6;
  std::size_t population = 32;  ///< mutants attempted per generation
  std::size_t max_findings_per_kind = 8;
  bool shrink = true;
  std::size_t threads = 0;  ///< BatchRunner pool width; 0 = hardware
  MutatorOptions mutator;
  OracleOptions oracle;
  ShrinkOptions shrinker;
};

struct CorpusEntry {
  Genome genome;
  std::string signature;  ///< the coverage class that admitted it
  std::string verdict;
};

struct Finding {
  FindingKind kind = FindingKind::kAgreement;
  Genome genome;      ///< minimized when ExplorerOptions::shrink, else raw
  Genome discovered;  ///< the mutant that first tripped the oracle
  std::string verdict;
  std::string digest;  ///< RunReport::digest() of replaying `genome`
  /// Stable scenario name: "<kind>-<first 8 hex of sha256(genome line)>".
  std::string name;
  bool requirements_satisfied = false;
  bool shrunk_to_fixpoint = false;
};

struct ExploreResult {
  std::vector<CorpusEntry> corpus;
  std::vector<Finding> findings;
  std::uint64_t runs = 0;  ///< simulations executed (incl. shrinking)

  /// Hex SHA-256 over every corpus line + signature and every finding's
  /// (name, kind, verdict, digest, line) — the cross-thread-count /
  /// cross-run byte-identity witness.
  [[nodiscard]] std::string digest() const;
};

class Explorer {
 public:
  explicit Explorer(ExplorerOptions options = {}) : options_(options) {}

  /// Explores from the given seed corpus. Invalid seeds are skipped.
  [[nodiscard]] ExploreResult explore(const std::vector<Genome>& seeds) const;

  /// The default seed corpus: paper figures under their standard modes and
  /// behaviors — the explorer then walks outward from the known ground.
  [[nodiscard]] static std::vector<Genome> default_seeds();

 private:
  ExplorerOptions options_;
};

/// Registers every finding under "explored/<finding name>"; the entry's
/// builder replays the minimized genome (the sweep seed overrides the
/// genome seed, matching every other registry family).
void register_findings(cup::ScenarioRegistry& registry,
                       const std::vector<Finding>& findings);

}  // namespace bftcup::explore
