#include "sim/process_table.hpp"

#include <algorithm>
#include <cassert>

namespace bftcup::sim {

void ProcessTable::add(std::unique_ptr<Process> process) {
  assert(!finalized_ && "processes must be added before the run starts");
  const ProcessId id = process->id();
  assert(!index_.contains(id) && "duplicate process id");
  index_.emplace(id, static_cast<std::uint32_t>(slots_.size()));
  slots_.push_back(Slot{id, std::move(process)});
}

void ProcessTable::clear() {
  slots_.clear();
  index_.clear();  // keeps the bucket array
  finalized_ = false;
}

void ProcessTable::finalize() {
  if (finalized_) return;
  finalized_ = true;
  std::sort(slots_.begin(), slots_.end(),
            [](const Slot& a, const Slot& b) { return a.id < b.id; });
  for (std::uint32_t i = 0; i < slots_.size(); ++i) index_[slots_[i].id] = i;
}

}  // namespace bftcup::sim
