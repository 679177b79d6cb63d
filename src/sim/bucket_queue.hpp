// Two-level bucketed event queue for the simulator hot path.
//
// A classic calendar-queue specialization for the simulator's access
// pattern: events are pushed at most `horizon` ticks ahead, almost always
// within a few hundred ticks of `now` (delivery delays and protocol
// timers), and must drain in exact (time, seq) order — the total order the
// golden digest corpus pins.
//
//  * Near future: a power-of-two ring of one-tick buckets. push is an
//    append (events for one tick arrive in ascending seq by construction,
//    so a bucket is always seq-sorted); pop is a cursor bump. O(1) both
//    ways, no comparator, no sift.
//  * Far future (>= ring window ahead): a binary min-heap on (time, seq).
//    As the cursor advances, heap entries entering the window migrate into
//    their ring bucket — heap pops come out in (time, seq) order, and any
//    later direct push for that tick carries a larger seq, so migration
//    preserves the per-bucket seq ordering invariant.
//
// Buckets and the heap start empty and grow to the events in flight. A
// big bucket buffer is held only while its tick holds events: pop() moves
// a drained bucket's buffer onto one spare list when it has room for more
// than kKeptEvents, and a bucket holding no buffer takes the most recently
// spared one on its first event. The ring so keeps about one big buffer
// per tick with events in flight (about δ of them), not one per tick a
// run has ever touched. A small buffer stays with its tick. Were it
// spared too, a tick holding one timer would take a big spare, and over
// many short runs every pending tick would come to hold a big buffer.
// clear() does the same for every bucket and keeps the heap's buffer, so
// a recycled simulator replays its next run without re-growing the queue
// — the RunContext steady state.
//
// Ev must expose `.time` (SimTime, non-negative, never below the last
// popped time) and `.seq` (unique, strictly increasing across pushes).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace bftcup::sim {

template <typename Ev>
class BucketQueue {
 public:
  /// Ring of 1024 one-tick buckets: covers every delivery delay and all but
  /// the most backed-off protocol timers in one bump, while keeping the
  /// empty-bucket scan between sparse events trivially cheap.
  static constexpr std::size_t kRingBits = 10;
  static constexpr std::size_t kRingSize = std::size_t{1} << kRingBits;
  static constexpr std::size_t kRingMask = kRingSize - 1;
  /// A drained bucket keeps a buffer with room for at most this many
  /// events; a bigger one goes onto the spare list.
  static constexpr std::size_t kKeptEvents = 64;

  BucketQueue() : ring_(kRingSize) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(Ev ev) {
    assert(ev.time >= base_ && "events are never scheduled in the past");
    // Fail-soft in release builds: a buggy custom DelayPolicy that
    // schedules into the past gets its event clamped to "now" (the old
    // binary heap delivered such events out of order; hanging the run on
    // an underflowed ring index would be strictly worse).
    if (ev.time < base_) ev.time = base_;
    ++size_;
    if (static_cast<std::size_t>(ev.time - base_) < kRingSize) {
      to_ring(std::move(ev));
      return;
    }
    far_.push_back(std::move(ev));
    std::push_heap(far_.begin(), far_.end(), After{});
  }

  /// Removes and returns the (time, seq)-minimal event. Precondition:
  /// !empty().
  Ev pop() {
    assert(size_ > 0);
    for (;;) {
      auto& bucket = ring_[static_cast<std::size_t>(base_) & kRingMask];
      if (cursor_ < bucket.size()) {
        Ev ev = std::move(bucket[cursor_]);
        ++cursor_;
        --in_ring_;
        --size_;
        if (cursor_ == bucket.size()) {
          release(bucket);
          cursor_ = 0;
        }
        return ev;
      }
      // Bucket drained (and released): advance the window. With an empty
      // ring, jump straight to the earliest far event instead of scanning
      // tick by tick across a sparse stretch.
      assert(bucket.empty() && cursor_ == 0);
      if (in_ring_ == 0) {
        assert(!far_.empty());
        base_ = std::max(base_ + 1, far_.front().time);
      } else {
        ++base_;
      }
      migrate();
    }
  }

  /// Empties the queue; keeps every buffer (big ones as spares) and the
  /// heap's capacity for the next run.
  void clear() {
    for (auto& bucket : ring_) release(bucket);
    far_.clear();
    base_ = 0;
    cursor_ = 0;
    in_ring_ = 0;
    size_ = 0;
  }

  /// Bytes the queue holds on the heap: the ring's slot array, every
  /// bucket and spare buffer, and the far heap's buffer.
  [[nodiscard]] std::size_t capacity_bytes() const {
    std::size_t events = far_.capacity();
    for (const auto& bucket : ring_) events += bucket.capacity();
    for (const auto& buffer : spares_) events += buffer.capacity();
    return events * sizeof(Ev) + ring_.capacity() * sizeof(ring_[0]) +
           spares_.capacity() * sizeof(spares_[0]);
  }

 private:
  struct After {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Moves far-future events whose tick entered the ring window into their
  /// buckets. Heap pops arrive in (time, seq) order and strictly precede
  /// any direct push for the same tick (a tick inside the window never
  /// leaves it, and seq grows monotonically), so buckets stay seq-sorted.
  void migrate() {
    while (!far_.empty() &&
           static_cast<std::size_t>(far_.front().time - base_) < kRingSize) {
      std::pop_heap(far_.begin(), far_.end(), After{});
      Ev ev = std::move(far_.back());
      far_.pop_back();
      to_ring(std::move(ev));
    }
  }

  /// Appends `ev` to its tick's bucket, which takes the most recently
  /// spared buffer if it holds none.
  void to_ring(Ev ev) {
    auto& bucket = ring_[static_cast<std::size_t>(ev.time) & kRingMask];
    if (bucket.capacity() == 0 && !spares_.empty()) {
      bucket = std::move(spares_.back());
      spares_.pop_back();
    }
    bucket.push_back(std::move(ev));
    ++in_ring_;
  }

  /// Empties `bucket`, and moves its buffer onto the spare list if it has
  /// room for more than kKeptEvents.
  void release(std::vector<Ev>& bucket) {
    bucket.clear();
    if (bucket.capacity() <= kKeptEvents) return;
    spares_.push_back(std::move(bucket));
    bucket = std::vector<Ev>();
  }

  std::vector<std::vector<Ev>> ring_;
  std::vector<std::vector<Ev>> spares_;  ///< empty buffers, LIFO
  std::vector<Ev> far_;  ///< min-heap on (time, seq)
  SimTime base_ = 0;     ///< current drain tick; ring window = [base_, base_+R)
  std::size_t cursor_ = 0;   ///< next undrained index in the base_ bucket
  std::size_t in_ring_ = 0;  ///< events currently in ring buckets
  std::size_t size_ = 0;
};

}  // namespace bftcup::sim
