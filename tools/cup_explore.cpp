// cup_explore — the adversary-explorer command line.
//
// Modes:
//   cup_explore [options]               coverage-guided exploration
//   cup_explore --replay '<line>'       replay a one-line genome artifact
//   cup_explore --scenario NAME [--seed N]
//                                       replay a registry scenario by name
//   cup_explore --digests TAG [--seed N]
//                                       one `name digest` line per registry
//                                       scenario carrying TAG (repeatable)
//   cup_explore --smoke                 CI gate: fixed tiny budget; asserts
//                                       the planted bridge-hiding family is
//                                       rediscovered and every finding
//                                       shrinks to a 1-minimal fixpoint
//   cup_explore --wire-smoke            CI gate: every wire/* registry
//                                       scenario keeps safety under its
//                                       hostile wire, and the planted
//                                       wire-safety violation (naive mode
//                                       tipped by frame mutation) is
//                                       rediscovered and shrunk
//
// Exploration options:
//   --master-seed N    (default 1)      --generations N   (default 6)
//   --population N     (default 32)     --threads N       (default hw)
//   --max-findings N   per kind         --no-shrink
//   --corpus-out FILE  --findings-out FILE
//
// Every run the explorer reports is a deterministic (genome, seed) pair;
// the printed line IS the artifact. Feed it back through --replay to get
// the identical verdict and digest, on any machine.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "explore/explorer.hpp"

namespace {

using namespace bftcup;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--master-seed N] [--generations N] "
               "[--population N]\n"
               "          [--threads N] [--max-findings N] [--no-shrink]\n"
               "          [--corpus-out FILE] [--findings-out FILE]\n"
               "       %s --replay '<genome line>'\n"
               "       %s --scenario NAME [--seed N]\n"
               "       %s --digests TAG [--seed N]\n"
               "       %s --smoke\n"
               "       %s --wire-smoke\n",
               argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

void print_report(const explore::Genome& genome, const cup::RunReport& report) {
  std::printf("verdict   %s\n", report.verdict().c_str());
  std::printf("digest    %s\n", report.digest().c_str());
  std::printf("coverage  %s\n", explore::coverage_signature(report).c_str());
  std::printf("requirements %s\n",
              explore::requirements_satisfied(genome) ? "SATISFIED"
                                                      : "NOT-SATISFIED");
  std::printf("line      %s\n", genome.to_line().c_str());
}

int replay(const std::string& line) {
  const auto genome = explore::Genome::parse_line(line);
  if (!genome) {
    std::fprintf(stderr, "cup_explore: malformed genome line\n");
    return 2;
  }
  if (!genome->valid()) {
    std::fprintf(stderr, "cup_explore: genome fails scenario validation\n");
    return 2;
  }
  print_report(*genome, cup::run_scenario(genome->to_builder().build()));
  return 0;
}

/// One `name digest` line per registry scenario carrying any of `tags`.
int digests_for_tags(const std::vector<std::string>& tags, std::uint64_t seed) {
  const auto& registry = cup::ScenarioRegistry::paper();
  std::vector<std::string> names;
  for (const std::string& tag : tags) {
    for (std::string& name : registry.names_with_tag(tag)) {
      names.push_back(std::move(name));
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "cup_explore: no registry scenario carries the "
                         "requested tag(s)\n");
    return 2;
  }
  for (const std::string& name : names) {
    const cup::RunReport report = registry.run(name, seed);
    std::printf("%s %s\n", name.c_str(), report.digest().c_str());
  }
  return 0;
}

int run_scenario_by_name(const std::string& name, std::uint64_t seed) {
  const auto& registry = cup::ScenarioRegistry::paper();
  if (!registry.contains(name)) {
    std::fprintf(stderr, "cup_explore: unknown scenario \"%s\"\n",
                 name.c_str());
    return 2;
  }
  const cup::RunReport report = registry.run(name, seed);
  std::printf("scenario  %s (seed %llu)\n", name.c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("verdict   %s\n", report.verdict().c_str());
  std::printf("digest    %s\n", report.digest().c_str());
  return 0;
}

void print_result(const explore::ExploreResult& result) {
  std::printf("runs executed     %llu\n",
              static_cast<unsigned long long>(result.runs));
  std::printf("corpus entries    %zu\n", result.corpus.size());
  std::printf("findings          %zu\n", result.findings.size());
  std::printf("result digest     %s\n\n", result.digest().c_str());
  for (const explore::Finding& finding : result.findings) {
    std::printf("[%s] %s  %s%s\n", to_string(finding.kind),
                finding.name.c_str(), finding.verdict.c_str(),
                finding.shrunk_to_fixpoint ? "" : "  (shrink budget hit)");
    std::printf("  digest %s\n", finding.digest.c_str());
    std::printf("  %s\n", finding.genome.to_line().c_str());
  }
}

bool write_lines(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cup_explore: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

int smoke(explore::ExplorerOptions options) {
  // Smoke defaults differ from the explorer's: a tighter finding cap and
  // shrink budget keep the gate under a minute. Flags the user passed
  // explicitly win (a field still at its global default gets the smoke
  // value; overriding WITH the default is indistinguishable and harmless).
  const explore::ExplorerOptions defaults;
  if (options.max_findings_per_kind == defaults.max_findings_per_kind) {
    options.max_findings_per_kind = 2;
  }
  if (options.shrinker.max_runs == defaults.shrinker.max_runs) {
    options.shrinker.max_runs = 300;
  }

  // Focused seed pair: benign Fig. 4a plus the fake-PD plant advertising
  // the TRUE PD — the known-bad bridge-hiding attack (registered as
  // fig4a/bridge-hiding-attack) is one member-hiding mutation away. The
  // smoke asserts the loop walks there and shrinks what it finds.
  std::vector<explore::Genome> seeds;
  for (const explore::Genome& seed : explore::Explorer::default_seeds()) {
    if (seed.mode == cup::Mode::kCupft) seeds.push_back(seed);
  }
  const explore::ExploreResult result =
      explore::Explorer(options).explore(seeds);

  // The planted known-bad: from the benign fig4a fake-PD seed, one
  // member-hiding mutation reaches the bridge-hiding agreement violation.
  bool rediscovered = false;
  bool all_fixpoints = true;
  for (const explore::Finding& finding : result.findings) {
    if (finding.kind == explore::FindingKind::kAgreement &&
        finding.requirements_satisfied &&
        finding.genome.mode == cup::Mode::kCupft &&
        finding.genome.byz == cup::ByzBehavior::kFakePd) {
      rediscovered = true;
    }
    all_fixpoints = all_fixpoints && finding.shrunk_to_fixpoint;
  }
  print_result(result);
  if (!rediscovered) {
    std::fprintf(stderr,
                 "SMOKE FAIL: no agreement violation rediscovered from the "
                 "planted fig4a fake-PD seed\n");
    return 1;
  }
  if (options.shrink && !all_fixpoints) {
    std::fprintf(stderr,
                 "SMOKE FAIL: a finding did not shrink to a fixpoint within "
                 "the budget\n");
    return 1;
  }
  std::printf("SMOKE OK: %zu findings%s, agreement violation rediscovered\n",
              result.findings.size(),
              options.shrink ? ", all 1-minimal" : " (shrinking disabled)");
  return 0;
}

/// The planted hostile-wire counterexample for --wire-smoke: the naive
/// protocol on a two-bridge split topology at a seed whose reliable-channel
/// run keeps safety (NO-TERMINATION), while a 25% all-kinds frame-mutation
/// wire tips it into an agreement split — the oracle must attribute the
/// break to the wire (kWireSafety) because the wire-off replay is clean.
constexpr const char* kWirePlantLine =
    "v=1.2.3.4.5.6.7.8|e=1>2;1>3;1>4;2>1;2>3;2>4;3>1;3>2;3>4;3>6;4>1;4>2;"
    "4>3;4>5;5>4;5>6;5>7;5>8;6>3;6>5;6>7;6>8;7>5;7>6;7>8;8>5;8>6;8>7|f=1|"
    "mode=naive|byz=silent|faulty=|fpd=|tl=|gst=0|delta=10|hz=300000|"
    "seed=16|cg=0|wm=250:63:2047";

int wire_smoke(explore::ExplorerOptions options) {
  // Gate 1 — no forgeries: every wire/* registry scenario runs a sound
  // protocol mode under an active hostile wire; agreement and validity
  // must survive at both sweep seeds. A failure here means a mutated or
  // spliced frame made it past the decode chain or the Verifier.
  const auto& registry = cup::ScenarioRegistry::paper();
  const std::vector<std::string> wire_names = registry.names_with_tag("wire");
  if (wire_names.empty()) {
    std::fprintf(stderr, "WIRE-SMOKE FAIL: no wire/* registry scenarios\n");
    return 1;
  }
  for (const std::string& name : wire_names) {
    for (std::uint64_t seed : {options.master_seed, options.master_seed + 6}) {
      const cup::RunReport report = registry.run(name, seed);
      std::printf("%-24s seed=%llu  %-20s mutated=%llu rejected=%llu "
                  "lost=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(seed),
                  report.verdict().c_str(),
                  static_cast<unsigned long long>(report.frames_mutated),
                  static_cast<unsigned long long>(report.frames_rejected),
                  static_cast<unsigned long long>(report.frames_lost));
      if (!report.agreement || !report.validity) {
        std::fprintf(stderr,
                     "WIRE-SMOKE FAIL: %s seed=%llu broke safety under the "
                     "hostile wire (%s)\n",
                     name.c_str(), static_cast<unsigned long long>(seed),
                     report.verdict().c_str());
        return 1;
      }
    }
  }

  // Gate 2 — the planted wire-safety finding is rediscovered and shrinks.
  const explore::ExplorerOptions defaults;
  if (options.generations == defaults.generations) options.generations = 2;
  if (options.population == defaults.population) options.population = 16;
  if (options.max_findings_per_kind == defaults.max_findings_per_kind) {
    options.max_findings_per_kind = 2;
  }
  if (options.shrinker.max_runs == defaults.shrinker.max_runs) {
    options.shrinker.max_runs = 400;
  }
  const auto plant = explore::Genome::parse_line(kWirePlantLine);
  if (!plant || !plant->valid()) {
    std::fprintf(stderr, "WIRE-SMOKE FAIL: planted genome line invalid\n");
    return 1;
  }
  const explore::ExploreResult result =
      explore::Explorer(options).explore({*plant});
  print_result(result);

  bool rediscovered = false;
  bool all_fixpoints = true;
  for (const explore::Finding& finding : result.findings) {
    if (finding.kind != explore::FindingKind::kWireSafety) continue;
    // A wire-safety finding outside the deliberately unsound naive mode
    // would be a real decode/verification hole — exactly what gate 1
    // guards against, re-checked here on everything the explorer found.
    if (finding.genome.mode != cup::Mode::kNaive) {
      std::fprintf(stderr,
                   "WIRE-SMOKE FAIL: wire-safety finding in sound mode: %s\n",
                   finding.genome.to_line().c_str());
      return 1;
    }
    if (!finding.genome.wire_active()) {
      std::fprintf(stderr,
                   "WIRE-SMOKE FAIL: wire-safety finding shrank to a "
                   "wire-free genome: %s\n",
                   finding.genome.to_line().c_str());
      return 1;
    }
    rediscovered = true;
    all_fixpoints = all_fixpoints && finding.shrunk_to_fixpoint;
  }
  if (!rediscovered) {
    std::fprintf(stderr,
                 "WIRE-SMOKE FAIL: the planted wire-safety violation was "
                 "not rediscovered\n");
    return 1;
  }
  if (options.shrink && !all_fixpoints) {
    std::fprintf(stderr,
                 "WIRE-SMOKE FAIL: a wire-safety finding did not shrink to "
                 "a fixpoint within the budget\n");
    return 1;
  }
  std::printf("WIRE-SMOKE OK: %zu wire scenarios safe, wire-safety plant "
              "rediscovered%s\n",
              wire_names.size(),
              options.shrink ? " and 1-minimal" : " (shrinking disabled)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  explore::ExplorerOptions options;
  std::string corpus_out;
  std::string findings_out;
  std::string replay_line;
  std::string scenario_name;
  std::vector<std::string> digest_tags;
  std::uint64_t scenario_seed = 1;
  bool want_smoke = false;
  bool want_wire_smoke = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      const std::string_view s = argv[++i];
      // A typo'd number must be a usage error, not a silent zero or a
      // wrapped negative: from_chars takes no sign and must consume it all.
      const auto [end, ec] =
          std::from_chars(s.data(), s.data() + s.size(), out);
      return ec == std::errc{} && end == s.data() + s.size();
    };
    std::uint64_t value = 0;
    if (arg == "--smoke") {
      want_smoke = true;
    } else if (arg == "--wire-smoke") {
      want_wire_smoke = true;
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_line = argv[++i];
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (arg == "--digests" && i + 1 < argc) {
      digest_tags.emplace_back(argv[++i]);
    } else if (arg == "--seed" && next_value(value)) {
      scenario_seed = value;
    } else if (arg == "--master-seed" && next_value(value)) {
      options.master_seed = value;
    } else if (arg == "--generations" && next_value(value)) {
      options.generations = value;
    } else if (arg == "--population" && next_value(value)) {
      options.population = value;
    } else if (arg == "--threads" && next_value(value)) {
      options.threads = value;
    } else if (arg == "--max-findings" && next_value(value)) {
      options.max_findings_per_kind = value;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--corpus-out" && i + 1 < argc) {
      corpus_out = argv[++i];
    } else if (arg == "--findings-out" && i + 1 < argc) {
      findings_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  if (want_smoke) return smoke(options);
  if (want_wire_smoke) return wire_smoke(options);
  if (!replay_line.empty()) return replay(replay_line);
  if (!digest_tags.empty()) return digests_for_tags(digest_tags, scenario_seed);
  if (!scenario_name.empty()) {
    return run_scenario_by_name(scenario_name, scenario_seed);
  }

  const explore::ExploreResult result =
      explore::Explorer(options).explore(explore::Explorer::default_seeds());
  print_result(result);

  if (!corpus_out.empty()) {
    std::string text;
    for (const explore::CorpusEntry& entry : result.corpus) {
      text += entry.verdict + "\t" + entry.signature + "\t" +
              entry.genome.to_line() + "\n";
    }
    if (!write_lines(corpus_out, text)) return 2;
  }
  if (!findings_out.empty()) {
    std::string text;
    for (const explore::Finding& finding : result.findings) {
      text += finding.name + "\t" + to_string(finding.kind) + "\t" +
              finding.verdict + "\t" + finding.digest + "\t" +
              finding.genome.to_line() + "\n";
    }
    if (!write_lines(findings_out, text)) return 2;
  }
  return 0;
}
