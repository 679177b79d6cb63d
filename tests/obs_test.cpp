// Unit coverage for the observability layer (src/obs/): metrics registry
// snapshot/merge algebra, the span flight-recorder ring, thread-local
// scope install/restore, and the Chrome trace-event exporter's document
// shape. The cross-cutting property — obs on/off never moves a digest — is
// obs_determinism_test.cpp's job; this file pins the layer's own contracts.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "obs/trace_export.hpp"

namespace bftcup::obs {
namespace {

TEST(HistogramDataTest, BucketsByBitWidth) {
  EXPECT_EQ(HistogramData::bucket_of(0), 0u);
  EXPECT_EQ(HistogramData::bucket_of(1), 1u);
  EXPECT_EQ(HistogramData::bucket_of(2), 2u);
  EXPECT_EQ(HistogramData::bucket_of(3), 2u);
  EXPECT_EQ(HistogramData::bucket_of(4), 3u);
  EXPECT_EQ(HistogramData::bucket_of(255), 8u);
  EXPECT_EQ(HistogramData::bucket_of(256), 9u);
  EXPECT_EQ(HistogramData::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(HistogramDataTest, RecordAndMerge) {
  HistogramData h;
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(100);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 106u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[7], 1u);

  HistogramData other;
  other.record(1000);
  HistogramData merged = h;
  merged.merge(other);
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.sum, 1106u);
  EXPECT_EQ(merged.max, 1000u);
  EXPECT_EQ(merged.buckets[10], 1u);
  EXPECT_EQ(merged.buckets[2], 2u);
}

TEST(MetricsRegistryTest, InternedReferencesAreStableAndSnapshotted) {
  MetricsRegistry registry;
  MetricsRegistry::Counter& a = registry.counter("a");
  a.add();
  // Interning more names must not invalidate the first reference
  // (node-based map contract hot sites rely on).
  for (int i = 0; i < 100; ++i) {
    registry.counter("c" + std::to_string(i)).add();
  }
  a.add(2);
  EXPECT_EQ(&a, &registry.counter("a"));
  registry.gauge("g").set_max(7);
  registry.gauge("g").set_max(3);  // lower value must not win
  registry.histogram("h").record(5);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("a"), 3u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_EQ(snap.gauge("g"), 7u);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
}

TEST(MetricsSnapshotTest, MergeAddsCountersAndMaxesGauges) {
  MetricsSnapshot a;
  a.counters["x"] = 3;
  a.gauges["peak"] = 100;
  a.histograms["h"].record(2);

  MetricsSnapshot b;
  b.counters["x"] = 4;
  b.counters["y"] = 1;
  b.gauges["peak"] = 70;
  b.histograms["h"].record(9);

  // Commutativity: the placement-independence property BatchRunner's
  // aggregation rests on.
  MetricsSnapshot ab = a;
  ab.merge(b);
  MetricsSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.counter("x"), 7u);
  EXPECT_EQ(ab.counter("y"), 1u);
  EXPECT_EQ(ab.gauge("peak"), 100u);
  EXPECT_EQ(ab.histograms.at("h").count, 2u);
}

TEST(SpanTracerTest, RecordsNestedSpansInCompletionOrder) {
  SpanTracer tracer(16);
  {
    const ObsScope scope(nullptr, &tracer);
    const ScopedSpan outer("outer", 42);
    { const ScopedSpan inner("inner"); }
    { const ScopedSpan inner("inner"); }
  }
  const SpanTrace trace = tracer.take();
  ASSERT_EQ(trace.records.size(), 3u);
  EXPECT_EQ(trace.started, 3u);
  EXPECT_EQ(trace.dropped, 0u);
  // Completion order: the two inners close before the outer.
  EXPECT_EQ(trace.names[trace.records[0].name_id], "inner");
  EXPECT_EQ(trace.names[trace.records[1].name_id], "inner");
  EXPECT_EQ(trace.names[trace.records[2].name_id], "outer");
  EXPECT_EQ(trace.records[0].depth, 1u);
  EXPECT_EQ(trace.records[2].depth, 0u);
  EXPECT_EQ(trace.records[2].seq, 0u);  // outer started first
  EXPECT_EQ(trace.records[2].arg, 42u);
  // Interning collapsed the repeated literal.
  EXPECT_EQ(trace.names.size(), 2u);
  EXPECT_GE(trace.records[0].wall_end_ns, trace.records[0].wall_begin_ns);
}

TEST(SpanTracerTest, RingKeepsTheMostRecentWindowAndCountsDrops) {
  SpanTracer tracer(4);
  {
    const ObsScope scope(nullptr, &tracer);
    for (std::uint64_t i = 0; i < 10; ++i) {
      const ScopedSpan span("s", i);
    }
  }
  const SpanTrace trace = tracer.take();
  ASSERT_EQ(trace.records.size(), 4u);
  EXPECT_EQ(trace.started, 10u);
  EXPECT_EQ(trace.dropped, 6u);
  // The survivors are the last four, oldest-first.
  EXPECT_EQ(trace.records[0].arg, 6u);
  EXPECT_EQ(trace.records[3].arg, 9u);
}

TEST(SpanTracerTest, TakeResetsTheRecorder) {
  SpanTracer tracer(8);
  {
    const ObsScope scope(nullptr, &tracer);
    const ScopedSpan span("s");
  }
  EXPECT_EQ(tracer.take().records.size(), 1u);
  const SpanTrace empty = tracer.take();
  EXPECT_TRUE(empty.records.empty());
  EXPECT_EQ(empty.started, 0u);
}

TEST(SpanTracerTest, SimClockSeamStampsBothEnds) {
  SpanTracer tracer(8);
  std::int64_t clock = 100;
  tracer.set_sim_clock(
      [](const void* ctx) { return *static_cast<const std::int64_t*>(ctx); },
      &clock);
  {
    const ObsScope scope(nullptr, &tracer);
    const ScopedSpan span("s");
    clock = 250;
  }
  const SpanTrace trace = tracer.take();
  ASSERT_EQ(trace.records.size(), 1u);
  EXPECT_EQ(trace.records[0].sim_begin, 100);
  EXPECT_EQ(trace.records[0].sim_end, 250);
}

TEST(ObsScopeTest, InstallsRestoresAndNests) {
  EXPECT_EQ(current_metrics(), nullptr);
  EXPECT_EQ(current_tracer(), nullptr);
  MetricsRegistry outer_metrics;
  SpanTracer outer_tracer(4);
  {
    const ObsScope outer(&outer_metrics, &outer_tracer);
    EXPECT_EQ(current_metrics(), &outer_metrics);
    EXPECT_EQ(current_tracer(), &outer_tracer);
    {
      MetricsRegistry inner_metrics;
      const ObsScope inner(&inner_metrics, nullptr);
      EXPECT_EQ(current_metrics(), &inner_metrics);
      EXPECT_EQ(current_tracer(), nullptr);
    }
    EXPECT_EQ(current_metrics(), &outer_metrics);
    EXPECT_EQ(current_tracer(), &outer_tracer);
  }
  EXPECT_EQ(current_metrics(), nullptr);
  EXPECT_EQ(current_tracer(), nullptr);
}

TEST(ObsScopeTest, SpanSitesAreInertWithoutATracer) {
  // The disabled path: no scope installed, constructing a span records
  // nothing and touches no tracer (would crash if it dereferenced one).
  const ScopedSpan span("orphan", 7);
  MetricsRegistry registry;
  {
    const ObsScope scope(&registry, nullptr);
    const ScopedSpan also_inert("still-no-tracer");
  }
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(TraceExportTest, EmitsChromeTraceEventDocument) {
  SpanTracer tracer(8);
  {
    const ObsScope scope(nullptr, &tracer);
    const ScopedSpan outer("run.execute");
    const ScopedSpan inner("phase \"quoted\"", 3);
  }
  const std::string json =
      to_chrome_trace_json(tracer.take(), "unit seed=1");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"unit seed=1\""), std::string::npos);
  EXPECT_NE(json.find("\"run.execute\""), std::string::npos);
  // The quote in the span name must arrive escaped.
  EXPECT_NE(json.find("phase \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_started\":2"), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);
}

TEST(TraceExportTest, EmptyTraceIsStillAValidDocument) {
  const std::string json = to_chrome_trace_json(SpanTrace{}, "empty");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"spans_started\":0"), std::string::npos);
}

}  // namespace
}  // namespace bftcup::obs
