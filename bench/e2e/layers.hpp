// Layer attribution for the traced run (README.md "Traced run"): the
// membership-search span the harness adds, and exclusive (self) time per
// span name over the traces of a pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "cup/runner.hpp"
#include "obs/span_tracer.hpp"

namespace bftcup::e2e {

/// Replaces the strategy `scenario` would search with (the runner's default
/// when none is set) by a decorator that opens "membership.search" around
/// every candidates() call. name() and cache_key() are delegated, so memo
/// keys, caches and run digests are unchanged.
void install_search_span(cup::Scenario& scenario);

/// Wall time per span name, summed over every trace added. A span's self
/// time is its duration minus the durations of its direct children.
class SpanTimes {
 public:
  /// Precondition: the trace dropped no record (its nesting must be whole).
  void add(const obs::SpanTrace& trace);

  [[nodiscard]] double self_ms(std::string_view name) const;
  [[nodiscard]] double total_ms(std::string_view name) const;
  /// Self time of every span whose name starts with `prefix`.
  [[nodiscard]] double self_ms_prefix(std::string_view prefix) const;
  [[nodiscard]] double all_self_ms() const;
  [[nodiscard]] std::uint64_t count(std::string_view name) const;

 private:
  struct Times {
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Times times(std::string_view name) const;

  std::map<std::string, Times, std::less<>> by_name_;
};

}  // namespace bftcup::e2e
