// Run-scoped metrics registry (README "Observability").
//
// Named counters, gauges and log2-bucket histograms in a run-local registry:
// the runner creates one per run, installs it on the run's own thread, and
// copies its snapshot into RunReport::metrics when the run ends. Nothing
// survives into the next run, so a report holds exactly the names that run
// touched, whichever recycled context executed it.
//
// Nothing in this module may ever feed RunReport::digest(): metric values
// describe where the engine spent its effort, not what the run decided.
// cup_lint's R3 obs clause machine-checks that any `obs::` field on
// RunReport stays digest-excluded.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/thread_annotations.hpp"

namespace bftcup::obs {

/// Log2-bucketed value distribution: bucket i counts values whose bit
/// width is i (bucket 0 = the value 0, bucket 1 = 1, bucket 2 = 2..3, ...).
/// Fixed shape so snapshots merge by plain bucket addition.
struct HistogramData {
  static constexpr std::size_t kBuckets = 65;  ///< bit widths 0..64

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  static std::size_t bucket_of(std::uint64_t value);
  void record(std::uint64_t value);
  void merge(const HistogramData& other);

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

/// Plain-data capture of a registry at one instant. std::map keys keep
/// every iteration (and JSON emission) in sorted-name order — replayable
/// by construction, never hash-table order.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] std::uint64_t gauge(std::string_view name) const;
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Placement-independent aggregation (BatchRunner): counters and
  /// histogram buckets add, gauges keep the maximum. Both operations are
  /// commutative and associative, so any merge order — pooled worker
  /// interleavings included — yields the same totals.
  void merge(const MetricsSnapshot& other);

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// The registry. Thread-confined (see header comment): sites reach it via
/// obs::current_metrics(), which is installed only on the run's own thread,
/// so only that thread ever mutates it.
class BFTCUP_THREAD_CONFINED MetricsRegistry {
 public:
  class Counter {
   public:
    void add(std::uint64_t n = 1) { value_ += n; }
    [[nodiscard]] std::uint64_t value() const { return value_; }

   private:
    std::uint64_t value_ = 0;
  };

  class Gauge {
   public:
    void set(std::uint64_t v) { value_ = v; }
    void set_max(std::uint64_t v) { value_ = v > value_ ? v : value_; }
    [[nodiscard]] std::uint64_t value() const { return value_; }

   private:
    std::uint64_t value_ = 0;
  };

  class Histogram {
   public:
    void record(std::uint64_t value) { data_.record(value); }
    [[nodiscard]] const HistogramData& data() const { return data_; }

   private:
    HistogramData data_;
  };

  /// Interned lookup: the returned reference stays valid for the registry's
  /// lifetime (node-based map), so hot sites resolve a name once per run
  /// and bump through the pointer.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  // std::map: stable node addresses for the interned references above and
  // sorted-name iteration for the snapshot.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace bftcup::obs
