// cup_lint fixture: the classified twin of r3_digest_fields.bad.cpp.
// Every RunReport field is hashed or justified; every RunRecord field
// appears in runs_csv().
#include <cstdint>
#include <string>

struct RunReport {
  std::uint64_t messages_sent = 0;
  // cup-lint: digest-excluded(varies with fault timeline, not behavior)
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;

  std::string digest() const;
};

std::string RunReport::digest() const {
  return std::to_string(messages_sent) + "." + std::to_string(bytes_sent);
}

struct RunRecord {
  std::string scenario;
  std::uint64_t seed = 0;
  std::uint64_t arena_peak = 0;
};

struct BatchReport {
  RunRecord run;
  std::string runs_csv() const;
};

std::string BatchReport::runs_csv() const {
  return run.scenario + "," + std::to_string(run.seed) + "," +
         std::to_string(run.arena_peak);
}
