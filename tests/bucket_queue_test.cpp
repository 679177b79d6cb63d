// The bucketed event queue must drain the exact (time, seq) total order a
// binary heap would — the golden digest corpus sits on top of it. These
// tests cross-validate against std::priority_queue on randomized
// workloads spanning both levels (near-future ring and far-future
// overflow), exercise the push-while-draining path, and prove clear()
// reuse (the recycled-simulator path) starts bit-identically.
#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "common/random.hpp"
#include "sim/bucket_queue.hpp"

namespace bftcup::sim {
namespace {

struct TestEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  int payload = 0;
};

struct After {
  bool operator()(const TestEvent& a, const TestEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

using Reference =
    std::priority_queue<TestEvent, std::vector<TestEvent>, After>;

/// Drains both queues fully, interleaving bursts of 1..`max_burst` pushes
/// scheduled relative to the last popped time — the simulator's access
/// pattern.
void cross_validate(Rng& rng, BucketQueue<TestEvent>& queue, SimTime max_gap,
                    int bursts, std::uint64_t max_burst = 6) {
  Reference reference;
  std::uint64_t seq = 0;
  SimTime now = 0;
  int payload = 0;

  const auto push_burst = [&](SimTime base) {
    const int count = static_cast<int>(rng.next_below(max_burst)) + 1;
    for (int i = 0; i < count; ++i) {
      TestEvent ev;
      ev.time = base + static_cast<SimTime>(rng.next_below(
                           static_cast<std::uint64_t>(max_gap)));
      ev.seq = seq++;
      ev.payload = payload++;
      queue.push(ev);
      reference.push(ev);
    }
  };

  push_burst(0);
  for (int burst = 0; burst < bursts; ++burst) {
    // Drain a few, pushing new work from the popped timestamps like event
    // handlers do (including same-tick pushes while the bucket drains).
    const int pops = static_cast<int>(rng.next_below(4)) + 1;
    for (int p = 0; p < pops && !queue.empty(); ++p) {
      ASSERT_FALSE(reference.empty());
      const TestEvent expected = reference.top();
      reference.pop();
      const TestEvent got = queue.pop();
      ASSERT_EQ(got.time, expected.time);
      ASSERT_EQ(got.seq, expected.seq);
      ASSERT_EQ(got.payload, expected.payload);
      now = got.time;
      if (rng.chance(0.7)) push_burst(now);
    }
  }
  while (!queue.empty()) {
    ASSERT_FALSE(reference.empty());
    const TestEvent expected = reference.top();
    reference.pop();
    const TestEvent got = queue.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
  }
  EXPECT_TRUE(reference.empty());
}

TEST(BucketQueueTest, MatchesHeapOrderOnNearFutureWorkload) {
  Rng rng(42);
  BucketQueue<TestEvent> queue;
  // All delays inside the ring window: the pure O(1) regime.
  cross_validate(rng, queue, /*max_gap=*/600, /*bursts=*/400);
}

TEST(BucketQueueTest, MatchesHeapOrderAcrossTheOverflowBoundary) {
  Rng rng(7);
  BucketQueue<TestEvent> queue;
  // Delays up to 8x the ring size: every event crosses heap -> ring
  // migration at least conceptually, and sparse stretches force the
  // empty-ring jump.
  cross_validate(rng, queue, /*max_gap=*/8 * BucketQueue<TestEvent>::kRingSize,
                 /*bursts=*/300);
}

TEST(BucketQueueTest, MatchesHeapOrderOnDenseTicks) {
  Rng rng(11);
  BucketQueue<TestEvent> queue;
  // Delays within δ = 10 and bursts of up to 500 events: a handful of
  // buckets hold hundreds of events each and grow from empty while the
  // ring drains them (nothing is pre-sized).
  cross_validate(rng, queue, /*max_gap=*/10, /*bursts=*/400,
                 /*max_burst=*/500);
}

TEST(BucketQueueTest, SameTickEventsDrainInSeqOrder) {
  // The simulator pushes in globally ascending seq (the FIFO tie-break);
  // same-tick events must drain in exactly that order — including events
  // scheduled *for the current tick while it drains* (a handler sending
  // with zero residual delay).
  BucketQueue<TestEvent> queue;
  for (std::uint64_t s = 0; s < 5; ++s) queue.push({.time = 10, .seq = s});
  for (std::uint64_t s = 0; s < 5; ++s) {
    EXPECT_EQ(queue.pop().seq, s);
    if (s == 2) queue.push({.time = 10, .seq = 5});  // same-tick append
  }
  EXPECT_EQ(queue.pop().seq, 5u);
  EXPECT_TRUE(queue.empty());
}

TEST(BucketQueueTest, DrainedBucketsReturnTheirBuffers) {
  // 1,000 consecutive ticks each get a burst of 500 events, pushed two
  // ticks ahead of the tick being drained, so at most 3 ticks hold events
  // at once. A drained bucket spares its buffer for the next burst: the
  // queue holds about 3 buffers of 512 events, never one per tick touched.
  constexpr SimTime kTicks = 1'000;
  constexpr std::uint64_t kBurst = 500;
  BucketQueue<TestEvent> queue;
  const std::size_t empty_bytes = queue.capacity_bytes();
  std::uint64_t seq = 0;
  std::uint64_t next_expected = 0;
  std::size_t peak = 0;
  for (SimTime t = 0; t < kTicks; ++t) {
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      queue.push({.time = t + 2, .seq = seq++});
    }
    peak = std::max(peak, queue.capacity_bytes() - empty_bytes);
    while (!queue.empty() && queue.size() > 2 * kBurst) {
      const TestEvent ev = queue.pop();
      ASSERT_EQ(ev.seq, next_expected++);
      ASSERT_EQ(ev.time, static_cast<SimTime>(ev.seq / kBurst) + 2);
    }
  }
  while (!queue.empty()) ASSERT_EQ(queue.pop().seq, next_expected++);
  EXPECT_EQ(next_expected, seq);
  EXPECT_LE(peak, 4 * 512 * sizeof(TestEvent));

  // clear() spares every buffer: the next run re-grows nothing.
  queue.clear();
  const std::size_t retained = queue.capacity_bytes();
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    queue.push({.time = 5, .seq = i});
  }
  EXPECT_EQ(queue.capacity_bytes(), retained);
}

TEST(BucketQueueTest, ClearedQueueReplaysIdentically) {
  const auto drain_log = [](BucketQueue<TestEvent>& queue) {
    Rng rng(99);
    std::uint64_t seq = 0;
    std::vector<std::pair<SimTime, std::uint64_t>> log;
    for (int i = 0; i < 500; ++i) {
      queue.push({.time = static_cast<SimTime>(rng.next_below(5000)),
                  .seq = seq++});
    }
    while (!queue.empty()) {
      const TestEvent ev = queue.pop();
      log.emplace_back(ev.time, ev.seq);
    }
    return log;
  };

  BucketQueue<TestEvent> queue;
  const auto first = drain_log(queue);
  queue.clear();  // keeps capacity; state must be as-new
  const auto second = drain_log(queue);
  EXPECT_EQ(first, second);

  // Clearing a partially drained queue (the mid-run reset path). clear()
  // first: a drained queue's cursor sits past every new timestamp, and
  // pushing into the past is outside the queue's contract.
  queue.clear();
  Rng rng(5);
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    queue.push({.time = static_cast<SimTime>(rng.next_below(3000)),
                .seq = seq++});
  }
  for (int i = 0; i < 37; ++i) (void)queue.pop();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  const auto third = drain_log(queue);
  EXPECT_EQ(first, third);
}

}  // namespace
}  // namespace bftcup::sim
