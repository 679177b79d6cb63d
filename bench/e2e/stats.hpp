// Order statistics for the end-to-end benchmark: nearest-rank percentiles
// that refuse to report a tail the sample cannot support, and the median and
// quartiles over timed passes.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace bftcup::e2e {

/// A percentile is reported only when at least this many samples lie beyond
/// its rank; otherwise the tail is noise from a handful of runs.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  std::optional<double> value;  ///< empty when the sample cannot support it
  std::size_t samples = 0;
};

/// Nearest-rank percentile `p` in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it.
[[nodiscard]] Percentile nearest_rank(std::vector<double> samples, double p);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(n=4)
/// (method "exclusive"), so the spread printed here matches the one a
/// Python reader computes from the same values. Precondition: non-empty.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

[[nodiscard]] double median(std::vector<double> values);

/// Checks the helpers above against hand-computed values; returns the number
/// of failed checks and prints each failure to stderr.
[[nodiscard]] int stats_self_test();

}  // namespace bftcup::e2e
