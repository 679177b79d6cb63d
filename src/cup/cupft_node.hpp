// CupftNode — consensus in the BFT-CUPFT model (Section VI): no process
// knows the fault threshold; membership is the Core algorithm (Algorithm 4).
//
// `min_core_k` guards against the degenerate g = 0 reading of Algorithm 4
// (with g = 0 any two mutually-received processes pass the predicate by
// absorbing everything known into S2). Any Byzantine-tolerant deployment
// has f >= 1, hence k(core) = f+1 >= 2.
#pragma once

#include "cup/node_base.hpp"
#include "protocol/core.hpp"

namespace bftcup::cup {

class CupftNode final : public CupNodeBase {
 public:
  struct Options {
    /// Reject candidates with k below this (see header comment).
    std::size_t min_core_k = 2;
    /// Knowledge-closure guard: adopt a core only once the PD of every
    /// known process outside the candidate has been received. This defeats
    /// the bridge-hiding fake-PD attack (a phantom candidate cannot become
    /// the strict maximum before the hidden side is learned), but costs
    /// liveness whenever a Byzantine process *outside* the core stays
    /// silent forever — evidence that Algorithm 4 cannot be patched by a
    /// purely local rule; tests/closure_guard_test.cpp pins both sides.
    bool require_known_closure = false;
  };

  CupftNode(ProcessId id, Params params, Options options)
      : CupNodeBase(id, std::move(params)), options_(options) {}
  // Out-of-line: Options' defaults cannot be instantiated inside the class.
  CupftNode(ProcessId id, Params params);

 protected:
  [[nodiscard]] std::optional<Membership> evaluate(
      const protocol::KnowledgeView& view) override {
    const auto core = protocol::try_find_core(view, search(), eval_cache());
    if (!core || core->k() < options_.min_core_k) return std::nullopt;
    if (options_.require_known_closure) {
      for (ProcessId known : view.known()) {
        if (!core->members.contains(known) &&
            !view.received().contains(known)) {
          return std::nullopt;  // someone we know is still unheard-from
        }
      }
    }
    return Membership{core->members, core->g};
  }

 private:
  Options options_;
};

}  // namespace bftcup::cup
