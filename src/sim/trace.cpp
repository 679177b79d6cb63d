#include "sim/trace.hpp"

namespace bftcup::sim {

void Trace::record_decision(ProcessId who, Value value, SimTime time) {
  // Integrity: only the first decision counts (Consensus decides at most
  // once; a second record would indicate a protocol bug and is kept out of
  // the trace so tests can assert on decisions_.size()).
  decisions_.emplace(who, Decision{value, time});
}

void Trace::record_send(std::size_t bytes, msg::MsgType type) {
  ++messages_sent_;
  bytes_sent_ += bytes;
  ++sent_by_type_[static_cast<std::size_t>(type)];
}

void Trace::record_delivery() {
  ++messages_delivered_;
}

void Trace::record_drop() {
  ++messages_dropped_;
}

void Trace::record_membership(ProcessId who, const IdSet& members,
                              SimTime time) {
  memberships_.emplace(who, members);
  membership_times_.emplace(who, time);
}

bool Trace::all_decided(const IdSet& who) const {
  for (ProcessId id : who) {
    if (!decisions_.contains(id)) return false;
  }
  return true;
}

bool Trace::agreement(const IdSet& who) const {
  std::optional<Value> seen;
  for (ProcessId id : who) {
    auto it = decisions_.find(id);
    if (it == decisions_.end()) continue;
    if (seen && *seen != it->second.value) return false;
    seen = it->second.value;
  }
  return true;
}

std::optional<SimTime> Trace::completion_time(const IdSet& who) const {
  SimTime latest = 0;
  for (ProcessId id : who) {
    auto it = decisions_.find(id);
    if (it == decisions_.end()) return std::nullopt;
    latest = std::max(latest, it->second.time);
  }
  return latest;
}

std::optional<Value> Trace::common_value(const IdSet& who) const {
  if (!all_decided(who) || !agreement(who)) return std::nullopt;
  if (who.empty()) return std::nullopt;
  return decisions_.at(*who.begin()).value;
}

}  // namespace bftcup::sim
