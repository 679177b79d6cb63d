// Stale-timer suppression shared by Discovery and PbftInstance.
//
// Simulator timers cannot be cancelled, so components that restart their
// periodic chain (view changes, crash recovery) stamp each armed timer with
// an epoch in the kind's upper bits and ignore fires whose epoch no longer
// matches. Encode and decode must stay in lockstep — keep both here.
#pragma once

#include <cstdint>

namespace bftcup::protocol {

/// Epochs wrap below 2^23 so the encoded kind stays a positive int with the
/// low byte free for the component's base kind.
inline constexpr std::uint64_t kTimerEpochMod = 0x7fffff;

[[nodiscard]] inline int encode_timer_kind(int base_kind,
                                           std::uint64_t epoch) {
  return base_kind | static_cast<int>(epoch % kTimerEpochMod) << 8;
}

/// The component's base kind of an encoded kind (its low byte).
[[nodiscard]] inline int timer_base_kind(int kind) { return kind & 0xff; }

[[nodiscard]] inline bool timer_epoch_matches(int kind, std::uint64_t epoch) {
  return static_cast<std::uint64_t>(kind >> 8) == epoch % kTimerEpochMod;
}

}  // namespace bftcup::protocol
