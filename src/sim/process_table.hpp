// Dense per-process storage for the simulator hot path.
//
// A ProcessTable resolves a ProcessId to a dense index with one hash lookup
// and keeps what a dispatch touches in one slot vector: the id, the process
// and its up/down bits. The simulator resolves a recipient once, when the
// message is sent; its queued event then carries slot indices, so dispatch
// reads the slot vector directly. A process signs through
// Context::signer(), which binds the context's own id, since a process
// signs only as itself (§II-A). Slots are sorted by id when the table is
// finalized, so start-up order — and with it the seeded bit-replay digest —
// is ascending id order.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/process.hpp"

namespace bftcup::sim {

class ProcessTable {
 public:
  struct Slot {
    ProcessId id;  ///< process->id(), read on dispatch without touching it
    std::unique_ptr<Process> process;
    // Fault state. Joined/crashed are orthogonal so crash/recover/join
    // actions compose in any order; on_start fires exactly once, at the
    // first moment the process is up.
    bool joined = true;    ///< false until a late joiner's kJoin action
    bool crashed = false;  ///< true between kCrash and kRecover
    bool started = false;  ///< on_start has run

    [[nodiscard]] bool up() const { return joined && !crashed; }
  };

  static constexpr std::uint32_t kNoIndex = 0xffffffffU;

  /// Registers a process. Must precede finalize(); duplicate ids are the
  /// caller's bug.
  void add(std::unique_ptr<Process> process);

  /// Destroys every process and empties the table, keeping the slot
  /// vector's and the index's capacity — the recycled-run path.
  void clear();

  /// Sorts slots by id and rebuilds the dense index. Called once when the
  /// run starts; idempotent.
  void finalize();

  /// Dense index for `id`, or kNoIndex. Valid only after finalize().
  [[nodiscard]] std::uint32_t index_of(ProcessId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? kNoIndex : it->second;
  }

  [[nodiscard]] Slot& slot(std::uint32_t index) { return slots_[index]; }

  [[nodiscard]] Slot* find(ProcessId id) {
    const std::uint32_t index = index_of(id);
    return index == kNoIndex ? nullptr : &slots_[index];
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

 private:
  std::vector<Slot> slots_;
  std::unordered_map<ProcessId, std::uint32_t> index_;
  bool finalized_ = false;
};

}  // namespace bftcup::sim
