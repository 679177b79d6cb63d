// Per-run bump allocator for the recyclable run engine.
//
// A RunArena is a monotonic memory resource: allocations bump a cursor
// through geometrically grown blocks and individual deallocations are
// no-ops. Between runs the owning RunContext calls rewind(), which makes
// every byte reusable without returning anything to the heap — so the
// steady state of a pooled batch workload performs near-zero malloc/free
// traffic for the containers routed through it (trace records, pending
// delivery buffers).
//
// LIFETIME CONTRACT: rewind() invalidates every allocation handed out since
// the last rewind. Anything arena-backed must be destroyed before the owner
// rewinds — Simulator::reset() destroys the previous run's processes, trace,
// and queue contents first, then rewinds. Containers that must survive a
// reset (retained-capacity event buckets, the cross-run caches) therefore
// never allocate from the arena. The recycling property test runs under
// ASan to catch use-after-rewind early (rewind also poisons the reclaimed
// range in debug builds by memset, so stale reads fail loudly, not subtly).
//
// Single-threaded by design, like the Simulator that consumes it.
#pragma once

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <vector>

namespace bftcup::sim {

class RunArena final : public std::pmr::memory_resource {
 public:
  /// `first_block` is the initial block size; subsequent blocks double up
  /// to a cap so one oversized run does not pin unbounded memory forever.
  explicit RunArena(std::size_t first_block = 16 * 1024);

  RunArena(const RunArena&) = delete;
  RunArena& operator=(const RunArena&) = delete;

  /// Makes every previously allocated byte reusable; keeps all blocks.
  void rewind();

  /// Bytes handed out since the last rewind().
  [[nodiscard]] std::size_t bytes_in_use() const { return in_use_; }

  /// Largest bytes_in_use() observed since the last rewind() — the
  /// per-run counter RunReport mirrors as `arena_bytes_peak`.
  [[nodiscard]] std::size_t bytes_high_water() const { return high_water_; }

  /// Total heap memory owned by the arena's blocks.
  [[nodiscard]] std::size_t bytes_reserved() const { return reserved_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* do_allocate(std::size_t bytes, std::size_t align) override;
  void* bump(Block& block, std::size_t bytes, std::size_t align);
  void do_deallocate(void* p, std::size_t bytes, std::size_t align) override;
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override;

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  ///< index of the block the cursor lives in
  std::size_t next_block_size_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::size_t reserved_ = 0;
};

}  // namespace bftcup::sim
