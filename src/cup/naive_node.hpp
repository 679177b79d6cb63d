// NaiveNode — the *incorrect* protocol of Section IV, kept as an executable
// witness of Theorem 7 / Observation 1.
//
// Without knowing f, a process that finds ANY self-declarable sink
// (∃ g >= 1, S1, S2 with isSink(g, S1, S2)) and immediately runs consensus
// with it can violate Agreement: in system AB (Fig. 2c) the two halves each
// self-declare and decide different values. The experiment harness runs this
// node on fig2a/fig2b/fig2c and measures the violation.
#pragma once

#include "cup/node_base.hpp"

namespace bftcup::cup {

class NaiveNode final : public CupNodeBase {
 public:
  using CupNodeBase::CupNodeBase;

 protected:
  [[nodiscard]] std::optional<Membership> evaluate(
      const protocol::KnowledgeView& view) override {
    // First self-declarable sink, preferring the largest witness g — no
    // core-uniqueness or subset-maximality checks. This is the rule the
    // impossibility result shows to be unsound.
    std::optional<Membership> best;
    std::size_t best_g = 0;
    for (const protocol::SinkCandidate& c : search().candidates(view)) {
      if (c.g < kMinG) continue;
      if (!best || c.g > best_g) {
        best = Membership{c.members(), c.g};
        best_g = c.g;
      }
    }
    return best;
  }

 private:
  /// Observation 1's examples use g >= 1: a set that tolerates no fault at
  /// all would not be declared a BFT sink.
  static constexpr std::size_t kMinG = 1;
};

}  // namespace bftcup::cup
