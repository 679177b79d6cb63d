// Named, paper-anchored scenario catalog.
//
// Every experiment the paper reports — each Table I cell, each figure
// instance, each adversary behavior, and the generated families the
// examples exercise — is registered here exactly once, under a stable
// name like "fig1b/fake-pd" or "table1/async/unknown-n-unknown-f".
// Benches, examples, and tests look scenarios up instead of re-assembling
// them, so a change to an experiment's parameters lands in one place.
//
// Entries are factories over the simulation seed: `builder(name, seed)`
// returns a ScenarioBuilder that call sites may tweak further (a longer
// horizon, an extra proposal) before build()/run().
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cup/scenario_builder.hpp"

namespace bftcup::cup {

namespace detail {
/// Rejects empty names and names holding a comma, quote, backslash or
/// control character. BatchReport::runs_csv quotes any name, so this is not
/// about the export: it keeps registry names portable to every downstream
/// consumer (shell one-liners, spreadsheets, grep). Shared by
/// ScenarioRegistry::add and Sweep::add so both entry paths enforce the
/// same contract.
void validate_scenario_name(const std::string& name);
}  // namespace detail

class ScenarioRegistry {
 public:
  struct Entry {
    std::string name;
    std::string description;  ///< paper anchor + expected behavior
    std::vector<std::string> tags;
    std::function<ScenarioBuilder(std::uint64_t seed)> make;
  };

  ScenarioRegistry() = default;

  /// The shared catalog of paper scenarios (built once, immutable).
  static const ScenarioRegistry& paper();

  /// Registers an entry. Throws ScenarioError on a duplicate name.
  void add(Entry entry);

  [[nodiscard]] const Entry* find(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Factory invocation; throws ScenarioError on an unknown name.
  [[nodiscard]] ScenarioBuilder builder(std::string_view name,
                                        std::uint64_t seed = 1) const;
  [[nodiscard]] Scenario make(std::string_view name,
                              std::uint64_t seed = 1) const;
  [[nodiscard]] RunReport run(std::string_view name,
                              std::uint64_t seed = 1) const;

  /// All names, sorted (the map order).
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::vector<std::string> names_with_tag(
      std::string_view tag) const;

  [[nodiscard]] const std::map<std::string, Entry, std::less<>>& entries()
      const {
    return entries_;
  }

 private:
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace bftcup::cup
