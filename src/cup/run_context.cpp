#include "cup/run_context.hpp"

namespace bftcup::cup {
namespace {

/// Simulator options for `scenario`: the scenario's sim block plus pre-size
/// hints derived from the graph when the caller left them unset.
sim::Simulator::Options sim_options_for(const Scenario& scenario) {
  sim::Simulator::Options options = scenario.sim;
  if (options.expected_processes == 0) {
    options.expected_processes = scenario.graph.vertex_count();
  }
  if (options.expected_events == 0) {
    // Rule of thumb from the simcore benches: a discovery-to-decision run
    // delivers a few dozen messages per process. A wrong hint only costs
    // memory.
    options.expected_events = 64 * options.expected_processes;
  }
  return options;
}

}  // namespace

RunContext::RunContext()
    : eval_cache_(std::make_shared<protocol::SharedEvalCache>()) {}

RunReport RunContext::run(const Scenario& scenario) {
  const sim::Simulator::Options options = sim_options_for(scenario);

  if (eval_cache_->entry_count() > kEvalCacheMaxEntries) {
    eval_cache_->clear_entries();
  }
  eval_cache_->set_memo_enabled(scenario.eval_cache);

  if (!simulator_) {
    simulator_.emplace(options);
  } else {
    if (simulator_->sign_cache().entry_count() > kSignCacheMaxEntries) {
      simulator_->sign_cache().clear();
    }
    simulator_->reset(options);
  }

  RunReport report = detail::execute_scenario(scenario, *simulator_,
                                              eval_cache_, runs_);
  ++runs_;
  return report;
}

RunReport run_scenario(const Scenario& scenario) {
  return RunContext().run(scenario);
}

}  // namespace bftcup::cup
