// The bucketed event queue must drain events by time and, within a tick,
// in push order: the exact (time, seq) total order a binary heap would,
// where each test numbers its pushes in `seq` (the queue itself reads no
// such field) — the golden digest corpus sits on top of it. These
// tests cross-validate against std::priority_queue on randomized
// workloads spanning both levels (near-future ring and far-future page
// lists, pages a whole turn of the page slots apart included) and on the
// pre-GST load of a partially synchronous run, push at the page
// boundaries and into the tick being drained, and prove clear() reuse
// (the recycled-simulator path) starts bit-identically and re-grows
// nothing.
#include <gtest/gtest.h>

#include <algorithm>
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
  // Delays up to 8x the ring size: most events wait in a page list and
  // move into the ring when the page before theirs is entered, and sparse
  // stretches force the empty-ring jump.
  cross_validate(rng, queue, /*max_gap=*/8 * BucketQueue<TestEvent>::kRingSize,
                 /*bursts=*/300);
}

TEST(BucketQueueTest, MatchesHeapOrderAcrossTurnsOfThePageSlots) {
  Rng rng(13);
  BucketQueue<TestEvent> queue;
  // Delays up to three turns of the page slots: a slot holds pages a turn
  // apart, and moving one into the ring must keep the later ones, in push
  // order, for their own turn.
  constexpr SimTime kTurn = BucketQueue<TestEvent>::kPageSlots *
                            BucketQueue<TestEvent>::kPageTicks;
  cross_validate(rng, queue, /*max_gap=*/3 * kTurn, /*bursts=*/2000,
                 /*max_burst=*/20);
}

/// What a TestEvent of the pre-GST load stands for.
enum LoadKind : int { kPoll, kSend, kViewTimer };

/// Drains `queue` against the reference heap under the load of discovery
/// before GST in a partially synchronous run: 16 processes each send to
/// the other 15 every 50 ticks, and every delivery lands uniformly in
/// [now + 1, GST + δ] (RandomDelayPolicy), so thousands of events wait in
/// each page. Each process also runs a PBFT-style view timer that doubles
/// from 400 ticks until it lies more than a turn of the page slots ahead;
/// after GST only the timers are left, so the ring empties and pop jumps
/// to the next page holding events. Reports the most events that waited
/// in page lists at once.
void drain_pre_gst_load(BucketQueue<TestEvent>& queue,
                        std::size_t* far_peak = nullptr) {
  constexpr SimTime kGst = 30'000;
  constexpr SimTime kDelta = 10;
  constexpr int kProcesses = 16;
  constexpr int kLastView = 9;  // 400 << 9 = 204,800 ticks
  Rng rng(3);
  Reference reference;
  std::uint64_t seq = 0;
  std::size_t peak = 0;
  const auto push = [&](SimTime time, LoadKind kind, int arg) {
    const TestEvent ev{.time = time, .seq = seq++, .payload = kind * 100 + arg};
    queue.push(ev);
    reference.push(ev);
    peak = std::max(peak, queue.far_size());
  };
  for (int p = 0; p < kProcesses; ++p) {
    push(p, kPoll, 0);
    push(400 + 37 * p, kViewTimer, 0);
  }
  while (!queue.empty()) {
    ASSERT_FALSE(reference.empty());
    const TestEvent expected = reference.top();
    reference.pop();
    const TestEvent got = queue.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
    ASSERT_EQ(got.payload, expected.payload);
    const SimTime now = got.time;
    const int arg = got.payload % 100;
    switch (static_cast<LoadKind>(got.payload / 100)) {
      case kPoll:
        if (now >= kGst) break;
        for (int peer = 1; peer < kProcesses; ++peer) {
          push(rng.next_in(now + 1, kGst + kDelta), kSend, 0);
        }
        push(now + 50, kPoll, 0);
        break;
      case kViewTimer:
        if (arg < kLastView) {
          push(now + (SimTime{400} << (arg + 1)), kViewTimer, arg + 1);
        }
        break;
      case kSend:
        break;
    }
  }
  EXPECT_TRUE(reference.empty());
  if (far_peak != nullptr) *far_peak = peak;
}

TEST(BucketQueueTest, MatchesHeapOrderOnPreGstLoad) {
  BucketQueue<TestEvent> queue;
  drain_pre_gst_load(queue);
  // Most of the 16 × 15 × 600 deliveries went through a page list.
  EXPECT_GT(queue.far_pushes(), 144'000u * 8 / 10);
}

TEST(BucketQueueTest, PushesAtThePageEdgesDrainInOrder) {
  // Pages p and p + 1 are in the ring while the queue drains page p; page
  // p + 2 waits in its page list. Each tick below holds one event pushed
  // while it was still in a page list (lower seq) and one pushed after its
  // page moved into the ring, so a page moved one page early or late
  // breaks the (time, seq) order at once.
  using Queue = BucketQueue<TestEvent>;
  constexpr SimTime kPage = Queue::kPageTicks;
  constexpr SimTime p = 5;
  const SimTime drained = p * kPage + 100;       // the tick being drained
  const SimTime last_near = (p + 2) * kPage - 1;  // last tick of page p + 1
  const SimTime first_far = (p + 2) * kPage;      // first tick of page p + 2

  Queue queue;
  Reference reference;
  std::uint64_t seq = 0;
  const auto push = [&](SimTime time) {
    const TestEvent ev{.time = time, .seq = seq++};
    queue.push(ev);
    reference.push(ev);
  };
  const auto pop_and_check = [&]() {
    ASSERT_FALSE(reference.empty());
    const TestEvent expected = reference.top();
    reference.pop();
    const TestEvent got = queue.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
  };

  // From tick 0 every one of these lies in a page list.
  for (SimTime t : {drained, last_near, first_far, first_far + 1,
                    (p - 1) * kPage}) {
    push(t);
  }
  pop_and_check();  // the empty-ring jump to page p - 1 moves page p in too
  push(last_near);  // page p + 1, two pages ahead: a page list
  pop_and_check();  // entering page p moves page p + 1 in; pops `drained`
  // Draining page p: pages p and p + 1 take direct pushes now.
  push(drained);    // the tick being drained
  push(last_near);  // the last tick of page p + 1
  push(first_far);  // the first tick of page p + 2: a page list
  while (!queue.empty()) pop_and_check();
  EXPECT_TRUE(reference.empty());
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

TEST(BucketQueueTest, PageStorageTracksTheFarEventsInFlight) {
  // A chunk goes back to the pool as soon as its page moves into the ring,
  // so the pool holds the most far events in flight at once plus at most
  // one part-full chunk per page that held them (the load's far events lie
  // in pages 2 to 58), not what every page ever held.
  using Queue = BucketQueue<TestEvent>;
  constexpr std::size_t kFarPages = 30'010 / Queue::kPageTicks;
  Queue queue;
  std::size_t far_peak = 0;
  drain_pre_gst_load(queue, &far_peak);
  EXPECT_GT(far_peak, 10'000u);
  EXPECT_LE(queue.far_capacity(), far_peak + kFarPages * Queue::kChunkEvents);

  // clear() keeps every buffer and chunk: the same load again re-grows
  // nothing.
  queue.clear();
  const std::size_t retained = queue.capacity_bytes();
  drain_pre_gst_load(queue);
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
