// Common node skeleton implementing Algorithm 3.
//
// Every variant follows the same phases:
//   1. run Discovery (Alg. 1) until a *membership rule* fires,
//   2. if this process is a member: run PBFT among the members,
//      else: fetch the decided value from a majority of members,
//   3. decide, serve late GETDECIDEDVAL requests, and quiesce.
// Subclasses differ only in the membership rule:
//   AuthCupNode  — Sink algorithm (Alg. 2, known f),
//   CupftNode    — Core algorithm (Alg. 4, unknown f),
//   NaiveNode    — the *incorrect* rule of Observation 1 (first
//                  self-declarable sink), used to exhibit Theorem 7's
//                  agreement violation as an executable run.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "protocol/consensus.hpp"
#include "protocol/discovery.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/pbft.hpp"
#include "protocol/sink_search.hpp"

namespace bftcup::cup {

/// What a membership rule yields: who runs consensus, and the fault
/// threshold used for quorum sizing (given f, or the discovered g).
struct Membership {
  IdSet members;
  std::size_t assumed_f = 0;
};

class CupNodeBase : public sim::Process {
 public:
  struct Params {
    IdSet pd;                          ///< PD_i
    Value proposal = 0;
    SimTime discovery_period = 50;
    SimTime pbft_base_timeout = 600;
    /// Shared, stateless candidate-search strategy.
    std::shared_ptr<const protocol::SinkSearch> search;
    /// Per-simulation evaluation memo shared by every correct node (may be
    /// null); see protocol/eval_cache.hpp.
    std::shared_ptr<protocol::SharedEvalCache> eval_cache;
  };

  CupNodeBase(ProcessId id, Params params);

  void on_start(sim::Context& ctx) override;
  void on_message(ProcessId from, const msg::Message& message,
                  sim::Context& ctx) override;
  void on_timer(int kind, sim::Context& ctx) override;
  void on_recover(sim::Context& ctx) override;

  [[nodiscard]] bool has_decided() const { return decided_.has_value(); }
  [[nodiscard]] Value decision() const { return *decided_; }
  [[nodiscard]] const std::optional<Membership>& membership() const {
    return membership_;
  }
  [[nodiscard]] const protocol::KnowledgeView& view() const {
    return discovery_.view();
  }
  [[nodiscard]] const protocol::Discovery& discovery() const {
    return discovery_;
  }

 protected:
  /// The membership rule; called after every knowledge change until it
  /// fires once.
  [[nodiscard]] virtual std::optional<Membership> evaluate(
      const protocol::KnowledgeView& view) = 0;

  [[nodiscard]] const protocol::SinkSearch& search() const {
    return *params_.search;
  }

  /// Shared evaluation memo (nullptr when the scenario disables it).
  [[nodiscard]] protocol::SharedEvalCache* eval_cache() const {
    return params_.eval_cache.get();
  }

 private:
  void maybe_find_membership(sim::Context& ctx);
  void finalize(Value value, sim::Context& ctx);

  Params params_;
  protocol::Discovery discovery_;
  protocol::ValueExchange exchange_;
  std::optional<Membership> membership_;
  std::optional<protocol::PbftInstance> pbft_;
  /// PBFT traffic can arrive before we have discovered the sink/core
  /// ourselves; it is buffered and replayed once the instance exists.
  std::vector<std::pair<ProcessId, msg::Message>> pending_pbft_;
  /// Set by on_recover: this node was down and may have missed the decision
  /// traffic, so once membership is (re)discovered it fetches the decided
  /// value even as a member. Never set in fault-free runs.
  bool recovering_ = false;
  std::optional<Value> decided_;
};

}  // namespace bftcup::cup
