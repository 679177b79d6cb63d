// cup_lint fixture: R3 must fire — an unclassified RunReport field, a
// hashed-but-marked contradiction, and a RunRecord field missing from the
// runs_csv() export. Not compiled.
// cup-lint-expect: R3
#include <cstdint>
#include <string>

struct RunReport {
  std::uint64_t messages_sent = 0;
  // Neither hashed by digest() nor marked digest-excluded: unclassified.
  std::uint64_t messages_dropped = 0;
  // Hashed below AND marked excluded: a contradiction.
  // cup-lint: digest-excluded(pretends to be a cache counter)
  std::uint64_t bytes_sent = 0;

  std::string digest() const;
};

std::string RunReport::digest() const {
  return std::to_string(messages_sent) + "." + std::to_string(bytes_sent);
}

struct RunRecord {
  std::string scenario;
  std::uint64_t seed = 0;
  std::uint64_t arena_peak = 0;  ///< missing from runs_csv() below
};

struct BatchReport {
  RunRecord run;
  std::string runs_csv() const;
};

std::string BatchReport::runs_csv() const {
  return run.scenario + "," + std::to_string(run.seed);
}
