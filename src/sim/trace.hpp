// Execution trace: everything the experiment harnesses measure.
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
#include "sim/wire_mutator.hpp"

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
  /// A sent message lost to a fault (downed link, crashed or not-yet-joined
  /// recipient) instead of delivered.
  void record_drop();
  void record_membership(ProcessId who, const IdSet& members, SimTime time);

  /// Hostile-wire accounting (sim/wire_mutator.hpp). A mutated delivery is
  /// one WireMutator::process() call that perturbed the frame; a rejected
  /// frame is one msg::decode_frame refusal (counted and dropped); a lost
  /// frame is one DelayPolicy::should_drop hit.
  void record_frame_mutated(WireMutationKind kind);
  void record_frame_rejected();
  void record_frame_lost();

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

  using WireKindHistogram = std::array<std::uint64_t, kWireMutationKindCount>;
  [[nodiscard]] std::uint64_t frames_mutated() const { return frames_mutated_; }
  [[nodiscard]] std::uint64_t frames_rejected() const {
    return frames_rejected_;
  }
  [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }
  [[nodiscard]] const WireKindHistogram& mutated_by_kind() const {
    return mutated_by_kind_;
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
  std::uint64_t frames_mutated_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t frames_lost_ = 0;
  WireKindHistogram mutated_by_kind_{};
};

}  // namespace bftcup::sim
