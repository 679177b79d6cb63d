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
// Buckets and the heap start empty and grow to the events in flight.
// clear() keeps every bucket's capacity and the heap's buffer, so a
// recycled simulator replays its next run without re-growing the queue —
// the RunContext steady state.
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
      ring_[static_cast<std::size_t>(ev.time) & kRingMask].push_back(
          std::move(ev));
      ++in_ring_;
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
          bucket.clear();
          cursor_ = 0;
        }
        return ev;
      }
      // Bucket drained: advance the window. With an empty ring, jump
      // straight to the earliest far event instead of scanning tick by
      // tick across a sparse stretch.
      bucket.clear();
      cursor_ = 0;
      if (in_ring_ == 0) {
        assert(!far_.empty());
        base_ = std::max(base_ + 1, far_.front().time);
      } else {
        ++base_;
      }
      migrate();
    }
  }

  /// Empties the queue; keeps bucket and heap capacity for the next run.
  void clear() {
    for (auto& bucket : ring_) bucket.clear();
    far_.clear();
    base_ = 0;
    cursor_ = 0;
    in_ring_ = 0;
    size_ = 0;
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
      ring_[static_cast<std::size_t>(ev.time) & kRingMask].push_back(
          std::move(ev));
      ++in_ring_;
    }
  }

  std::vector<std::vector<Ev>> ring_;
  std::vector<Ev> far_;  ///< min-heap on (time, seq)
  SimTime base_ = 0;     ///< current drain tick; ring window = [base_, base_+R)
  std::size_t cursor_ = 0;   ///< next undrained index in the base_ bucket
  std::size_t in_ring_ = 0;  ///< events currently in ring buckets
  std::size_t size_ = 0;
};

}  // namespace bftcup::sim
