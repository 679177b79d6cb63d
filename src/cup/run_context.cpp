#include "cup/run_context.hpp"

namespace bftcup::cup {

RunReport RunContext::run(const Scenario& scenario) {
  if (eval_cache_.size() > kEvalCacheMaxEntries) eval_cache_.clear();
  eval_cache_.set_memo_enabled(scenario.eval_cache);

  if (!simulator_) {
    simulator_.emplace(scenario.sim);
  } else {
    simulator_->reset(scenario.sim);
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
