// Execution trace: everything the experiment harnesses measure.
//
// Record storage is FlatMap (sorted vectors) rather than std::map: a run
// writes at most one record per process, and the recycled-run engine wants
// reserve() from scenario hints instead of per-run node allocation.
// Iteration order (sorted by id) matches the std::map the digest
// serialization was pinned on.
#pragma once

#include <array>
#include <optional>

#include "common/flat_map.hpp"
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
  using DecisionMap = FlatMap<ProcessId, Decision>;
  using MembershipMap = FlatMap<ProcessId, IdSet>;
  using TimeMap = FlatMap<ProcessId, SimTime>;

  /// Pre-sizes the per-process record maps (scenario hint: process count).
  void reserve(std::size_t processes);

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
