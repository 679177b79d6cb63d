#include "cup/run_context.hpp"

#include "sim/simulator.hpp"

namespace bftcup::cup {

RunContext::RunContext()
    : eval_cache_(std::make_shared<protocol::SharedEvalCache>(true)) {}

RunContext::~RunContext() = default;

RunReport RunContext::run(const Scenario& scenario) {
  if (!scenario.context_pooling) {
    ++runs_;
    return run_scenario(scenario);
  }

  sim::Simulator::Options options = detail::sim_options_for(scenario);
  options.arena = &arena_;
  options.keyring = &keyring_;

  if (eval_cache_->entry_count() > kEvalCacheMaxEntries) {
    eval_cache_->clear_entries();
  }
  eval_cache_->set_memo_enabled(scenario.eval_cache);

  std::uint64_t recycled = 0;
  if (!simulator_) {
    simulator_ = std::make_unique<sim::Simulator>(options);
  } else {
    recycled = ++recycled_;
    if (simulator_->verify_cache().entry_count() > kVerifyCacheMaxEntries) {
      simulator_->verify_cache().clear();
    }
    if (simulator_->sign_cache().entry_count() > kVerifyCacheMaxEntries) {
      simulator_->sign_cache().clear();
    }
    simulator_->reset(options);
  }

  RunReport report = detail::execute_scenario(scenario, *simulator_,
                                              eval_cache_, arena_, recycled);
  ++runs_;
  return report;
}

}  // namespace bftcup::cup
