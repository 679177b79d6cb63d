// CupNode — Algorithm 3, the one correct-process pipeline:
//   1. run Discovery (Alg. 1) until the *membership rule* fires,
//   2. if this process is a member: run PBFT among the members,
//      else: fetch the decided value from a majority of members,
//   3. decide, serve late GETDECIDEDVAL requests, and quiesce.
// Only the membership rule varies, by Params::mode:
//   kAuth  — Sink algorithm (Alg. 2): isSink at the given f,
//   kCupft — Core algorithm (Alg. 4): the strict-maximum core, unknown f,
//   kNaive — the *incorrect* rule of Observation 1 (first self-declarable
//            sink), used to exhibit Theorem 7's agreement violation as an
//            executable run.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cup/runner.hpp"
#include "protocol/consensus.hpp"
#include "protocol/discovery.hpp"
#include "protocol/pbft.hpp"
#include "protocol/sink.hpp"

namespace bftcup::cup {

class CupNode final : public sim::Process {
 public:
  struct Params {
    Mode mode = Mode::kAuth;
    std::size_t f = 0;           ///< kAuth: the given fault threshold
    bool closure_guard = false;  ///< kCupft: the knowledge-closure guard
    Value proposal = 0;
    /// Shared, stateless candidate-search strategy.
    std::shared_ptr<const protocol::SinkSearch> search;
    /// Per-simulation evaluation memo shared by every correct node (may be
    /// null; owned by the RunContext, which outlives the node); see
    /// protocol/eval_cache.hpp.
    protocol::SharedEvalCache* eval_cache = nullptr;
  };

  /// `pd` (PD_i) moves into Discovery, which holds the node's one copy.
  CupNode(ProcessId id, IdSet pd, Params params);

  void on_start(sim::Context& ctx) override;
  void on_message(ProcessId from, const msg::Message& message,
                  sim::Context& ctx) override;
  void on_timer(int kind, sim::Context& ctx) override;
  void on_recover(sim::Context& ctx) override;

 private:
  /// The membership rule of params_.mode; called after every knowledge
  /// change until it fires once.
  [[nodiscard]] std::optional<protocol::SinkResult> membership(
      const protocol::KnowledgeView& view) const;
  void maybe_find_membership(sim::Context& ctx);
  void finalize(Value value, sim::Context& ctx);

  Params params_;
  protocol::Discovery discovery_;
  protocol::ValueExchange exchange_;
  /// Who runs consensus, and its g: PBFT's quorum threshold.
  std::optional<protocol::SinkResult> membership_;
  /// Out of line: the instance is over half a node's bytes, and only
  /// members ever make one.
  std::unique_ptr<protocol::PbftInstance> pbft_;
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
