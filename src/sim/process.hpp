// Process abstraction: event handlers + the capabilities a process may use.
#pragma once

#include "common/types.hpp"
#include "crypto/signer.hpp"
#include "msg/message.hpp"
#include "msg/message_ref.hpp"

namespace bftcup::sim {

class Simulator;

/// Handed to every event handler. A process can read the clock, send
/// messages to processes it knows, arm timers, sign as itself, verify any
/// signature, and record a decision. It can NOT reach other processes'
/// state, keys, or the global membership — the capability set mirrors the
/// paper's model exactly. Only the Simulator makes one: it carries the
/// process's slot in the simulator's ProcessTable, so sends and timers
/// queue their events without looking the caller up.
class Context {
 public:
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] ProcessId self() const { return self_; }

  void send(ProcessId to, msg::Message message);
  /// Zero-copy send: the payload is shared, not copied into the queue.
  void send(ProcessId to, msg::MessageRef message);

  /// Convenience broadcast: freezes `message` into one shared payload, then
  /// fans out handle copies. Prefer the MessageRef overload when the same
  /// payload is reused across calls (periodic polls, cached replies).
  void broadcast(const IdSet& to, const msg::Message& message);
  void broadcast(const IdSet& to, const msg::MessageRef& message);

  /// Arms a one-shot timer firing `delay` from now with the given kind.
  void set_timer(SimTime delay, int kind);

  /// Signs as this process and no other (§II-A).
  [[nodiscard]] crypto::Signer signer() const;
  [[nodiscard]] const crypto::Verifier& verifier() const;

  /// Records this process's (single) consensus decision.
  void decide(Value value);

  /// Records the sink/core membership this process settled on (metrics).
  void report_membership(const IdSet& members);

 private:
  friend class Simulator;

  Context(Simulator* sim, ProcessId self, std::uint32_t slot)
      : sim_(sim), self_(self), slot_(slot) {}

  Simulator* sim_;
  ProcessId self_;
  std::uint32_t slot_;  ///< self's index in the simulator's ProcessTable
};

class Process {
 public:
  explicit Process(ProcessId id) : id_(id) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }

  virtual void on_start(Context& ctx) = 0;
  virtual void on_message(ProcessId from, const msg::Message& message,
                          Context& ctx) = 0;
  virtual void on_timer(int kind, Context& ctx);

  /// Called when a FaultTimeline recovery brings this process back up.
  /// Timers armed before the crash were dropped while it was down; override
  /// to re-arm periodic machinery. Default: do nothing.
  virtual void on_recover(Context& ctx);

 private:
  ProcessId id_;
};

}  // namespace bftcup::sim
