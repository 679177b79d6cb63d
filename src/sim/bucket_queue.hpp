// Two-level bucketed event queue for the simulator hot path.
//
// A calendar queue (Brown, CACM 1988) specialized for the simulator's
// access pattern: time only moves forward, and events must drain in time
// order, events of one tick in the order they were pushed — the total
// order the golden digest corpus pins. The queue keeps that order by
// construction and compares no sequence numbers. Time is cut into pages of
// kPageTicks ticks.
//
//  * Near future: a ring of one-tick buckets covering the current page and
//    the next. push is an append, so a bucket holds its tick's events in
//    push order; pop is a cursor bump. O(1) both ways, no comparator, no
//    sift.
//  * Far future (two pages ahead or more): page lists. A push appends the
//    event to its page's list, in push order. Entering page q moves page
//    q+1's list into the ring: its ring buckets held page q-1, already
//    drained, and no direct push could reach page q+1 before that moment,
//    so every bucket receives its list events ahead of any direct push and
//    stays in push order. With the ring empty, pop jumps to the first page
//    holding events and moves it and the next in. An event is so moved
//    once: O(1) push and amortized O(1) pop, where a heap would pay
//    O(log n) for each of the pre-GST deliveries of a partially
//    synchronous run.
//
// Page lists live in kPageSlots slots, page p in slot p mod kPageSlots (a
// hashed timing wheel, Varghese & Lauck, SOSP 1987). Pages a whole turn
// of the slots apart (131,072 ticks) share a slot; moving one page in
// keeps the others there in push order, so the order stays exact at any
// distance, and an event a turn or more ahead is moved once more per turn.
//
// Buckets and page lists start empty and grow to the events in flight. A
// big bucket buffer is held only while its tick holds events: pop() moves
// a drained bucket's buffer onto one spare list when it has room for more
// than kKeptEvents, and a bucket holding no buffer takes the most recently
// spared one on its first event. The ring so keeps about one big buffer
// per tick with events in flight (about δ of them), not one per tick a
// run has ever touched. A small buffer stays with its tick. Were it
// spared too, a tick holding one timer would take a big spare, and over
// many short runs every pending tick would come to hold a big buffer.
// Page lists are chains of fixed-size chunks from one pool: a chunk goes
// back to the pool as soon as its page moves into the ring, so the pool
// holds about the peak number of far events in flight, plus one part-full
// chunk per page, however many pages a run passes. clear() returns every
// bucket buffer (big ones as spares) and every chunk, so a recycled
// simulator replays its next run without re-growing the queue — the
// RunContext steady state.
//
// Ev must be default-constructible and movable and expose `.time`
// (SimTime, non-negative, never below the last popped time).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace bftcup::sim {

template <typename Ev>
class BucketQueue {
 public:
  /// Pages of 512 ticks: the ring's two pages cover every delivery delay
  /// and all but the most backed-off protocol timers, while keeping the
  /// empty-bucket scan between sparse events trivially cheap.
  static constexpr std::size_t kPageBits = 9;
  static constexpr std::size_t kPageTicks = std::size_t{1} << kPageBits;
  static constexpr std::size_t kRingSize = 2 * kPageTicks;
  static constexpr std::size_t kRingMask = kRingSize - 1;
  /// Page-list slots: one turn covers 131,072 ticks, past the latest GST
  /// of every paper scenario.
  static constexpr std::size_t kPageSlots = 256;
  /// Events per page-list chunk (a 1 KiB chunk for the simulator's
  /// 32-byte event).
  static constexpr std::size_t kChunkEvents = 32;
  /// A drained bucket keeps a buffer with room for at most this many
  /// events; a bigger one goes onto the spare list.
  static constexpr std::size_t kKeptEvents = 64;

  BucketQueue() : ring_(kRingSize), slots_(kPageSlots) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Events waiting in page lists.
  [[nodiscard]] std::size_t far_size() const { return size_ - in_ring_; }
  /// Pushes since clear() that went to a page list.
  [[nodiscard]] std::uint64_t far_pushes() const { return far_pushes_; }

  void push(Ev ev) {
    assert(ev.time >= base_ && "events are never scheduled in the past");
    // Fail-soft in release builds: a buggy custom DelayPolicy that
    // schedules into the past gets its event clamped to "now" (the old
    // binary heap delivered such events out of order; hanging the run on
    // an underflowed ring index would be strictly worse).
    if (ev.time < base_) ev.time = base_;
    ++size_;
    const std::uint64_t page = page_of(ev.time);
    if (page <= page_of(base_) + 1) {
      to_ring(std::move(ev));
      return;
    }
    ++far_pushes_;
    append(slots_[page % kPageSlots], page, std::move(ev));
  }

  /// Removes and returns the earliest event, the first pushed among
  /// events of its tick. Precondition: !empty().
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
      // Bucket drained (and released): advance. With an empty ring, jump
      // straight to the first page holding events instead of scanning
      // tick by tick across a sparse stretch.
      assert(bucket.empty() && cursor_ == 0);
      if (in_ring_ == 0) {
        const std::uint64_t first = first_far_page();
        base_ = static_cast<SimTime>(first << kPageBits);
        migrate(first);
        migrate(first + 1);
      } else {
        ++base_;
        const bool new_page = (static_cast<std::uint64_t>(base_) &
                               (kPageTicks - 1)) == 0;
        if (new_page) migrate(page_of(base_) + 1);
      }
    }
  }

  /// Empties the queue; keeps every bucket buffer (big ones as spares)
  /// and every page-list chunk for the next run.
  void clear() {
    for (auto& bucket : ring_) release(bucket);
    for (PageSlot& slot : slots_) {
      Chunk* chunk = slot.head;
      for (std::size_t left = slot.size; left > 0;) {
        const std::size_t n = std::min(left, kChunkEvents);
        // Drop the events now, not when the chunk is next written:
        // payloads must not outlive the run.
        for (std::size_t i = 0; i < n; ++i) chunk->events[i] = Ev{};
        left -= n;
        Chunk* const next = chunk->next;
        give_back(chunk);
        chunk = next;
      }
      slot = PageSlot{};
    }
    base_ = 0;
    cursor_ = 0;
    in_ring_ = 0;
    size_ = 0;
    far_pushes_ = 0;
  }

  /// Bytes the queue holds on the heap: the ring's slot array, every
  /// bucket and spare buffer, the page-list slots and every chunk.
  [[nodiscard]] std::size_t capacity_bytes() const {
    std::size_t events = 0;
    for (const auto& bucket : ring_) events += bucket.capacity();
    for (const auto& buffer : spares_) events += buffer.capacity();
    return events * sizeof(Ev) + ring_.capacity() * sizeof(ring_[0]) +
           spares_.capacity() * sizeof(spares_[0]) +
           slots_.capacity() * sizeof(PageSlot) +
           chunks_.size() * sizeof(Chunk) +
           chunks_.capacity() * sizeof(chunks_[0]);
  }

  /// Events the chunk pool can hold; clear() keeps it.
  [[nodiscard]] std::size_t far_capacity() const {
    return chunks_.size() * kChunkEvents;
  }

 private:
  struct Chunk {
    std::array<Ev, kChunkEvents> events{};
    Chunk* next = nullptr;
  };

  /// One page list, or several a whole turn apart, in push order. Every
  /// chunk but the tail is full.
  struct PageSlot {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::size_t size = 0;
    std::uint64_t first = 0;  ///< smallest page held; meaningful if size > 0
  };

  static std::uint64_t page_of(SimTime t) {
    return static_cast<std::uint64_t>(t) >> kPageBits;
  }

  /// The smallest page any page list holds. Precondition: far_size() > 0.
  [[nodiscard]] std::uint64_t first_far_page() const {
    std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
    for (const PageSlot& slot : slots_) {
      if (slot.size != 0) first = std::min(first, slot.first);
    }
    assert(first != std::numeric_limits<std::uint64_t>::max());
    return first;
  }

  /// Appends `ev`, which falls in `page`, to `slot`'s list.
  void append(PageSlot& slot, std::uint64_t page, Ev&& ev) {
    const std::size_t used = slot.size % kChunkEvents;
    if (used == 0) {
      Chunk* const chunk = take_chunk();
      (slot.size == 0 ? slot.head : slot.tail->next) = chunk;
      slot.tail = chunk;
    }
    slot.tail->events[used] = std::move(ev);
    slot.first = slot.size == 0 ? page : std::min(slot.first, page);
    ++slot.size;
  }

  /// Moves page `page`'s events from its slot into their ring buckets, in
  /// push order, and gives each chunk back once read. Events of later pages
  /// sharing the slot stay in it, re-appended in push order.
  void migrate(std::uint64_t page) {
    PageSlot& slot = slots_[page % kPageSlots];
    if (slot.size == 0 || slot.first != page) return;
    Chunk* chunk = slot.head;
    std::size_t left = slot.size;
    slot = PageSlot{};
    while (left > 0) {
      const std::size_t n = std::min(left, kChunkEvents);
      for (std::size_t i = 0; i < n; ++i) {
        Ev& ev = chunk->events[i];
        const std::uint64_t at = page_of(ev.time);
        if (at == page) {
          to_ring(std::move(ev));
        } else {
          append(slot, at, std::move(ev));
        }
      }
      left -= n;
      Chunk* const next = chunk->next;
      give_back(chunk);
      chunk = next;
    }
  }

  /// A chunk from the pool, or a new one when the pool is empty.
  Chunk* take_chunk() {
    Chunk* chunk = free_;
    if (chunk != nullptr) {
      free_ = chunk->next;
    } else {
      chunks_.push_back(std::make_unique<Chunk>());
      chunk = chunks_.back().get();
    }
    chunk->next = nullptr;
    return chunk;
  }

  void give_back(Chunk* chunk) {
    chunk->next = free_;
    free_ = chunk;
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
  std::vector<PageSlot> slots_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< the pool: every chunk
  Chunk* free_ = nullptr;  ///< chunks holding no events, linked by `next`
  SimTime base_ = 0;       ///< current drain tick
  std::size_t cursor_ = 0;   ///< next undrained index in the base_ bucket
  std::size_t in_ring_ = 0;  ///< events currently in ring buckets
  std::size_t size_ = 0;
  std::uint64_t far_pushes_ = 0;
};

}  // namespace bftcup::sim
