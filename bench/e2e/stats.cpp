#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bftcup::e2e {

Percentile nearest_rank(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * n / 100.0)), 1, samples.size());
  if (samples.size() - rank < kMinSamplesBeyond) return out;
  out.value = samples[rank - 1];
  return out;
}

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(values, n=4, method="exclusive"), integer for
  // integer: j is clamped to [1, ld-1] and delta may go negative, which
  // extrapolates past the ends exactly as Python does.
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp((i * (ld + 1)) / 4, 1L, ld - 1);
    const long delta = i * (ld + 1) - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

double median(std::vector<double> values) {
  return quartiles(std::move(values)).median;
}

int stats_self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "stats self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

  // Reference values from Python: statistics.quantiles(d, n=4).
  const Quartiles ten = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(ten.q1, 2.75) && near(ten.median, 5.5) && near(ten.q3, 8.25),
         "quartiles of 1..10 are 2.75 / 5.5 / 8.25");
  const Quartiles two = quartiles({5, 1});
  expect(near(two.q1, 0.0) && near(two.median, 3.0) && near(two.q3, 6.0),
         "quartiles of {5, 1} extrapolate to 0 / 3 / 6");
  const Quartiles seven = quartiles({10.5, 2.25, 7, 7, 1, 9, 4});
  expect(near(seven.q1, 2.25) && near(seven.median, 7.0) && near(seven.q3, 9.0),
         "quartiles of an odd sample land on samples");
  expect(near(median({3, 1, 2}), 2.0), "median of {3, 1, 2} is 2");
  expect(near(median({4.5}), 4.5), "median of one value is that value");

  // 1..1000: p99 has rank 990 and exactly 10 samples beyond it.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  const Percentile p99 = nearest_rank(thousand, 99);
  expect(p99.value.has_value() && near(*p99.value, 990) && p99.samples == 1000,
         "p99 of 1..1000 is 990 over 1000 samples");
  const Percentile p50 = nearest_rank(thousand, 50);
  expect(p50.value.has_value() && near(*p50.value, 500),
         "p50 of 1..1000 is 500 (nearest rank, no interpolation)");
  thousand.pop_back();  // 999 samples: only 9 lie beyond rank 990
  const Percentile short_tail = nearest_rank(thousand, 99);
  expect(!short_tail.value.has_value() && short_tail.samples == 999,
         "p99 over 999 samples is refused, with its sample count");
  expect(!nearest_rank({}, 50).value.has_value(), "empty sample has no p50");
  expect(!nearest_rank({1, 2, 3}, 50).value.has_value(),
         "p50 over 3 samples is refused");
  return failures;
}

}  // namespace bftcup::e2e
