#include "obs/metrics.hpp"

namespace bftcup::obs {

std::size_t HistogramData::bucket_of(std::uint64_t value) {
  std::size_t width = 0;
  while (value != 0) {
    ++width;
    value >>= 1;
  }
  return width;  // < kBuckets: a 64-bit value's width is at most 64
}

void HistogramData::record(std::uint64_t value) {
  ++buckets[bucket_of(value)];
  ++count;
  sum += value;
  if (value > max) max = value;
}

void HistogramData::merge(const HistogramData& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t MetricsSnapshot::gauge(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) {
    auto [it, inserted] = gauges.emplace(name, value);
    if (!inserted && value > it->second) it->second = value;
  }
  for (const auto& [name, data] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, data);
    if (!inserted) it->second.merge(data);
  }
}

MetricsRegistry::Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

MetricsRegistry::Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c.value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g.value());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace(name, h.data());
  }
  return snap;
}

}  // namespace bftcup::obs
