#include "explore/explorer.hpp"

#include <map>
#include <set>
#include <utility>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "cup/batch_runner.hpp"
#include "cup/run_context.hpp"
#include "graph/figures.hpp"

namespace bftcup::explore {
namespace {

/// Coverage-new genomes kept in ExploreResult::corpus.
constexpr std::size_t kMaxCorpus = 128;

std::string sha256_hex(const std::string& text) {
  return to_hex(crypto::digest_bytes(crypto::sha256(to_bytes(text))));
}

Genome seed_from(const graph::figures::Instance& instance, cup::Mode mode) {
  Genome genome;
  genome.graph = instance.graph;
  genome.faulty = instance.faulty;
  genome.f = instance.f;
  genome.mode = mode;
  genome.gst = 0;
  genome.delta = 10;
  genome.horizon = 300'000;
  genome.seed = 1;
  return genome;
}

}  // namespace

std::string ExploreResult::digest() const {
  std::string text;
  for (const CorpusEntry& entry : corpus) {
    text += entry.genome.to_line();
    text += '\n';
    text += entry.signature;
    text += '\n';
    text += entry.verdict;
    text += '\n';
  }
  for (const Finding& finding : findings) {
    text += finding.name;
    text += '|';
    text += to_string(finding.kind);
    text += '|';
    text += finding.verdict;
    text += '|';
    text += finding.digest;
    text += '|';
    text += finding.genome.to_line();
    text += '\n';
  }
  return sha256_hex(text);
}

std::vector<Genome> Explorer::default_seeds() {
  using graph::figures::fig1a;
  using graph::figures::fig1b;
  using graph::figures::fig3a;
  using graph::figures::fig4a;

  std::vector<Genome> seeds;
  seeds.push_back(seed_from(fig1b(), cup::Mode::kAuth));
  seeds.push_back(seed_from(fig1a(), cup::Mode::kAuth));
  seeds.push_back(seed_from(fig3a(), cup::Mode::kAuth));
  seeds.push_back(seed_from(fig4a(), cup::Mode::kCupft));

  // Fig. 4a with the Byzantine core member advertising its *true* PD — one
  // member-deletion mutation away from the bridge-hiding attack family.
  {
    Genome plant = seed_from(fig4a(), cup::Mode::kCupft);
    plant.byz = cup::ByzBehavior::kFakePd;
    for (ProcessId byz : plant.faulty) {
      plant.fake_pds[byz] = plant.graph.out_neighbors(byz);
    }
    seeds.push_back(std::move(plant));
  }
  return seeds;
}

ExploreResult Explorer::explore(const std::vector<Genome>& seeds) const {
  ExploreResult result;
  CoverageMap coverage;
  const Mutator mutator;

  cup::BatchRunner::Options batch_options;
  batch_options.threads = options_.threads;
  const cup::BatchRunner runner(batch_options);

  std::set<std::string> finding_keys;
  std::map<FindingKind, std::size_t> findings_per_kind;

  const auto process = [&](const std::vector<Genome>& genomes,
                           const std::vector<cup::RunReport>& reports) {
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      const std::string signature = coverage_signature(reports[i]);
      if (coverage.add(signature) && result.corpus.size() < kMaxCorpus) {
        result.corpus.push_back(
            {genomes[i], signature, reports[i].verdict()});
      }
      const auto classification = classify(genomes[i], reports[i]);
      if (!classification.has_value()) continue;
      const std::string key =
          std::string(to_string(classification->kind)) +
          (classification->requirements_satisfied ? "|sat|" : "|unsat|") +
          signature;
      std::size_t& kind_count = findings_per_kind[classification->kind];
      if (finding_keys.contains(key) ||
          kind_count >= options_.max_findings_per_kind) {
        continue;
      }
      finding_keys.insert(key);
      ++kind_count;
      Finding finding;
      finding.kind = classification->kind;
      finding.genome = genomes[i];
      finding.discovered = genomes[i];
      finding.verdict = reports[i].verdict();
      finding.requirements_satisfied = classification->requirements_satisfied;
      result.findings.push_back(std::move(finding));
    }
  };

  Rng master(options_.master_seed);
  std::vector<Genome> population;
  for (const Genome& seed : seeds) {
    if (seed.valid()) population.push_back(seed);
  }

  for (std::size_t generation = 0; generation <= options_.generations;
       ++generation) {
    if (generation > 0) {
      population.clear();
      if (result.corpus.empty()) break;
      Rng generation_rng = master.fork(generation);
      const std::size_t corpus_size = result.corpus.size();
      for (std::size_t slot = 0; slot < options_.population; ++slot) {
        // Per-slot stream: mutation draws are independent of how many
        // earlier slots produced a mutant, so the schedule is a pure
        // function of (master_seed, generation, slot, corpus prefix).
        Rng slot_rng = generation_rng.fork(slot);
        const Genome& parent =
            result.corpus[slot_rng.next_below(corpus_size)].genome;
        if (auto mutant = mutator.mutate(parent, slot_rng)) {
          population.push_back(std::move(*mutant));
        }
      }
    }
    if (population.empty()) continue;

    std::vector<cup::SweepPoint> points;
    points.reserve(population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      points.push_back({"gen" + std::to_string(generation) + "/" +
                            std::to_string(i),
                        population[i].seed,
                        population[i].to_builder().build()});
    }
    const std::vector<cup::RunReport> reports =
        runner.run_reports(std::move(points));
    result.runs += reports.size();
    process(population, reports);
  }

  // Minimize, then stamp each finding with its replay verdict/digest and
  // its content-addressed name. Serial and deterministic; replays go
  // through a recycled context (warm caches over near-identical genomes).
  cup::RunContext replay_context;
  const Shrinker shrinker(options_.shrinker);
  for (Finding& finding : result.findings) {
    if (options_.shrink) {
      ShrinkOutcome outcome = shrinker.shrink(
          finding.discovered,
          Classification{finding.kind, finding.requirements_satisfied});
      finding.genome = std::move(outcome.genome);
      finding.shrunk_to_fixpoint = outcome.fixpoint;
      result.runs += outcome.runs;
    }
    const cup::RunReport report =
        replay_context.run(finding.genome.to_builder().build());
    ++result.runs;
    finding.verdict = report.verdict();
    finding.digest = report.digest();
    // Safety breaks under *unsatisfied* requirements are necessity
    // witnesses, not protocol attacks; the name says which is which.
    const bool tag_unsat = !finding.requirements_satisfied &&
                           finding.kind != FindingKind::kWitness;
    finding.name = std::string(to_string(finding.kind)) +
                   (tag_unsat ? "-unsat-" : "-") +
                   sha256_hex(finding.genome.to_line()).substr(0, 8);
  }

  // Distinct discoveries can shrink to the same minimal genome; keep the
  // first of each (names are content-addressed, so equal name <=> equal
  // minimized genome and replay).
  std::set<std::string> names;
  std::vector<Finding> unique;
  unique.reserve(result.findings.size());
  for (Finding& finding : result.findings) {
    if (names.insert(finding.name).second) {
      unique.push_back(std::move(finding));
    }
  }
  result.findings = std::move(unique);
  return result;
}

void register_findings(cup::ScenarioRegistry& registry,
                       const std::vector<Finding>& findings) {
  for (const Finding& finding : findings) {
    cup::ScenarioRegistry::Entry entry;
    entry.name = std::string("explored/") + finding.name;
    entry.description =
        std::string("Explorer-minimized ") + to_string(finding.kind) +
        " finding (" + finding.verdict + "); replay line: " +
        finding.genome.to_line();
    entry.tags = {"explored", to_string(finding.kind)};
    entry.make = [genome = finding.genome](std::uint64_t seed) {
      return genome.to_builder().seed(seed);
    };
    registry.add(std::move(entry));
  }
}

}  // namespace bftcup::explore
