// Shared helpers for simulator-based and membership tests.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "protocol/knowledge_view.hpp"
#include "sim/simulator.hpp"

namespace bftcup::test {

/// A random partial view with every shape the membership search must
/// handle: `n` processes with sparse ids (one at the top of the id space),
/// PDs of about `degree` members that may name their owner or an id no
/// process has, and processes whose PD the owner never received.
inline protocol::KnowledgeView random_view(Rng& rng, std::size_t n,
                                           double degree) {
  std::vector<ProcessId> ids;
  IdSet used;
  while (ids.size() < n) {
    const std::uint64_t raw =
        ids.empty() ? ~std::uint64_t{0} : 1 + rng.next_below(10 * n);
    if (used.insert(ProcessId(raw))) ids.push_back(ProcessId(raw));
  }
  const double density = degree / static_cast<double>(n - 1);
  const auto draw_pd = [&](std::size_t i) {
    IdSet pd;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && rng.chance(density)) pd.insert(ids[j]);
    }
    if (rng.chance(0.3)) pd.insert(ids[i]);
    if (rng.chance(0.3)) pd.insert(ProcessId(20 * n + rng.next_below(4)));
    return pd;
  };
  protocol::KnowledgeView view(ids[0], draw_pd(0));
  for (std::size_t i = 1; i < n; ++i) {
    const IdSet pd = draw_pd(i);
    if (rng.chance(0.85)) view.add_pd(ids[i], pd);
  }
  return view;
}

/// A process scripted with lambdas; handy for exercising the simulator and
/// single protocol components without a full node.
class ScriptedProcess : public sim::Process {
 public:
  using StartFn = std::function<void(sim::Context&)>;
  using MessageFn =
      std::function<void(ProcessId, const msg::Message&, sim::Context&)>;
  using TimerFn = std::function<void(int, sim::Context&)>;

  explicit ScriptedProcess(ProcessId id) : sim::Process(id) {}

  ScriptedProcess& on_start_do(StartFn fn) {
    start_ = std::move(fn);
    return *this;
  }
  ScriptedProcess& on_message_do(MessageFn fn) {
    message_ = std::move(fn);
    return *this;
  }
  ScriptedProcess& on_timer_do(TimerFn fn) {
    timer_ = std::move(fn);
    return *this;
  }
  ScriptedProcess& on_recover_do(StartFn fn) {
    recover_ = std::move(fn);
    return *this;
  }

  void on_start(sim::Context& ctx) override {
    if (start_) start_(ctx);
  }
  void on_message(ProcessId from, const msg::Message& message,
                  sim::Context& ctx) override {
    if (message_) message_(from, message, ctx);
  }
  void on_timer(int kind, sim::Context& ctx) override {
    if (timer_) timer_(kind, ctx);
  }
  void on_recover(sim::Context& ctx) override {
    if (recover_) recover_(ctx);
  }

 private:
  StartFn start_;
  MessageFn message_;
  TimerFn timer_;
  StartFn recover_;
};

}  // namespace bftcup::test
