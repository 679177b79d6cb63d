// Execution trace: what the run decided and what it sent, for the run
// report and its digest. Engine effort, the hostile wire's fault counts
// included, goes to the run's metrics registry instead (obs/metrics.hpp).
//
// A run writes at most one decision and one membership record per process,
// in decision order rather than id order, so the records live in std::maps:
// each insert is O(log n), where a sorted vector shifts half its entries.
// Iteration is sorted by id, the order RunReport's copies and the digest
// serialization use.
#pragma once

#include <array>
#include <map>
#include <optional>

#include "common/types.hpp"
#include "msg/message.hpp"

namespace bftcup::sim {

struct Decision {
  Value value = kNoValue;
  SimTime time = 0;
};

class Trace {
 public:
  /// Per-message-type sent counts (the coverage signature's traffic shape).
  using MsgHistogram = std::array<std::uint64_t, msg::kMsgTypeCount>;
  using DecisionMap = std::map<ProcessId, Decision>;
  using MembershipMap = std::map<ProcessId, IdSet>;
  using TimeMap = std::map<ProcessId, SimTime>;

  void record_decision(ProcessId who, Value value, SimTime time);
  void record_send(std::size_t bytes, msg::MsgType type);
  void record_delivery();
  /// A sent message lost to a fault (downed link, lossy wire, crashed or
  /// not-yet-joined recipient) instead of delivered.
  void record_drop();
  void record_membership(ProcessId who, const IdSet& members, SimTime time);

  [[nodiscard]] const DecisionMap& decisions() const { return decisions_; }
  [[nodiscard]] const MembershipMap& memberships() const {
    return memberships_;
  }
  [[nodiscard]] const TimeMap& membership_times() const {
    return membership_times_;
  }

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_;
  }
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return messages_dropped_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] const MsgHistogram& sent_by_type() const {
    return sent_by_type_;
  }

  /// True iff every process in `who` decided.
  [[nodiscard]] bool all_decided(const IdSet& who) const;

  /// True iff no two processes in `who` decided different values
  /// (vacuously true with < 2 decisions).
  [[nodiscard]] bool agreement(const IdSet& who) const;

  /// Latest decision time among `who`; nullopt unless all decided.
  [[nodiscard]] std::optional<SimTime> completion_time(const IdSet& who) const;

  /// The decided value if all of `who` decided the same one.
  [[nodiscard]] std::optional<Value> common_value(const IdSet& who) const;

 private:
  DecisionMap decisions_;
  MembershipMap memberships_;
  TimeMap membership_times_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  MsgHistogram sent_by_type_{};
};

}  // namespace bftcup::sim
