// Fluent, validating construction of `Scenario`.
//
// The raw `Scenario` struct stays the runner's wire format, but everything
// outside src/cup/ assembles one through this builder:
//
//   const auto report = ScenarioBuilder(graph::figures::fig1b())
//                           .mode(Mode::kAuth)
//                           .byz(ByzBehavior::kFakePd)
//                           .fake_pd(ProcessId(4), {ProcessId(1)})
//                           .seed(7)
//                           .run();
//
// build() validates the assembled configuration (faulty ⊆ vertices, f
// consistent with the graph, proposals/fake PDs keyed by real processes,
// positive periods) and throws `ScenarioError` instead of letting a typo'd
// experiment silently measure the wrong system.
#pragma once

#include <initializer_list>
#include <stdexcept>
#include <string>

#include "cup/runner.hpp"
#include "graph/figures.hpp"
#include "graph/generators.hpp"

namespace bftcup::cup {

/// Thrown by ScenarioBuilder::build() on an inconsistent configuration.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;

  /// Start from a bare knowledge connectivity graph (no faults).
  explicit ScenarioBuilder(graph::Digraph g);

  /// Start from a paper figure: graph + ground-truth faulty set + f.
  explicit ScenarioBuilder(const graph::figures::Instance& instance);

  /// Start from a generated system: graph + faulty set + f.
  explicit ScenarioBuilder(const graph::generators::GeneratedSystem& system);

  ScenarioBuilder& graph(graph::Digraph g);
  ScenarioBuilder& mode(Mode mode);
  ScenarioBuilder& byz(ByzBehavior behavior);
  ScenarioBuilder& faulty(IdSet ids);
  ScenarioBuilder& faulty(std::initializer_list<std::uint64_t> raw_ids);
  ScenarioBuilder& f(std::size_t f);

  ScenarioBuilder& seed(std::uint64_t seed);
  ScenarioBuilder& gst(SimTime gst);
  ScenarioBuilder& delta(SimTime delta);
  ScenarioBuilder& horizon(SimTime horizon);

  ScenarioBuilder& proposal(ProcessId id, Value value);
  /// Every process with raw id in [first, last] proposes `value` (the
  /// Theorem 7 experiments give each half of the system one value).
  ScenarioBuilder& propose_range(std::uint64_t first, std::uint64_t last,
                                 Value value);
  ScenarioBuilder& fake_pd(ProcessId id, IdSet advertised);

  // --- fault timeline (dynamic adversary) ---------------------------------
  // Scheduled faults interleave with deliveries under the deterministic
  // (time, seq) order; see sim/fault_timeline.hpp for the exact semantics.
  // A crashed *correct* process cannot decide, so a crash without a matching
  // recover_at before the horizon yields NO-TERMINATION by construction.

  /// Process `p` stops receiving (and therefore sending) at `at`.
  ScenarioBuilder& crash_at(ProcessId p, SimTime at);
  /// Process `p` comes back up at `at` and re-arms its periodic machinery.
  ScenarioBuilder& recover_at(ProcessId p, SimTime at);
  /// Messages sent from->to inside [at, up_at) are lost. Throws
  /// ScenarioError unless up_at > at.
  ScenarioBuilder& drop_link(ProcessId from, ProcessId to, SimTime at,
                             SimTime up_at);
  /// Bidirectional outage between the two groups over [at, heal_at).
  /// Throws ScenarioError unless heal_at > at.
  ScenarioBuilder& partition(IdSet group_a, IdSet group_b, SimTime at,
                             SimTime heal_at);
  /// Defers `p`'s start to `at` (late join / churn).
  ScenarioBuilder& join_at(ProcessId p, SimTime at);
  /// Replaces the whole script (for timelines assembled elsewhere).
  ScenarioBuilder& fault_timeline(sim::FaultTimeline timeline);

  // --- hostile wire (README "Hostile wire") --------------------------------
  // Both knobs break the paper's reliable-channel premise on purpose: they
  // are fault models for robustness testing, not paper assumptions. Safety
  // must survive them; Theorem 1 liveness need not.

  /// Seeded byte-level mutation of delivered frames: each targeted delivery
  /// is encoded, perturbed with probability `rate`, and re-parsed by the
  /// hardened decoder (rejects are counted and dropped). `kind_mask` selects
  /// mutation kinds (bit i = sim::WireMutationKind i), `type_mask` the
  /// targeted message types (bit i = msg::MsgType i), and `wire_seed` re-rolls
  /// the mutation schedule independently of the simulation seed.
  ScenarioBuilder& wire_mutation(
      double rate, std::uint32_t kind_mask = sim::kAllWireMutationKinds,
      std::uint32_t type_mask = sim::kAllWireMsgTypes,
      std::uint64_t wire_seed = 0);
  /// Seeded message loss: every send is dropped with probability `drop_p`,
  /// and surviving deliveries gain uniform extra delay in [0, jitter]
  /// (clamped to the partial-synchrony cap).
  ScenarioBuilder& loss(double drop_p, SimTime jitter = 0);
  /// Burst loss windows [start + k*period, start + k*period + len) — one
  /// window when period is 0 — inside which sends drop with `drop_p`
  /// (default: total blackout). Implies the loss model even when the
  /// baseline drop probability is zero.
  ScenarioBuilder& loss_burst(SimTime start, SimTime len, SimTime period = 0,
                              double drop_p = 1.0);

  ScenarioBuilder& discovery_period(SimTime period);
  ScenarioBuilder& pbft_base_timeout(SimTime timeout);
  ScenarioBuilder& delay_policy(
      std::function<std::unique_ptr<sim::DelayPolicy>()> make);
  ScenarioBuilder& search(std::shared_ptr<const protocol::SinkSearch> search);
  ScenarioBuilder& closure_guard(bool enabled = true);

  // --- membership-engine cache knobs ---------------------------------------
  // Both memos store pure functions of immutable inputs, so toggling them
  // cannot change a run's digest (the determinism suite asserts this); they
  // exist for A/B benchmarks and ablations. Defaults: both enabled.

  /// Per-simulation shared evaluation memo (canonical view -> sink/core result).
  ScenarioBuilder& eval_cache(bool enabled = true);
  /// Master switch over the eval memo and the signature memo
  /// (`caching(false)` runs the fully cold engine — the pre-caching path).
  ScenarioBuilder& caching(bool enabled);

  // --- observability (README "Observability"). Metrics are always
  // collected; tracing is observation only and digest-neutral — the obs
  // determinism suite replays the corpus with it on and off to assert it.

  /// Span tracing over the run's hot layers: on installs a SpanTracer with
  /// the default flight-recorder capacity and exports RunReport::spans.
  ScenarioBuilder& tracing(bool enabled = true);
  /// Explicit flight-recorder capacity in span records (0 = tracing off).
  ScenarioBuilder& trace_capacity(std::size_t records);

  /// Default flight-recorder capacity installed by tracing(true): deep
  /// enough to hold every span of the registry scenarios, and a bounded
  /// most-recent window (plus a drop count) for larger runs.
  static constexpr std::size_t kDefaultTraceCapacity = 1u << 15;

  /// Witness scenarios (fig. 1a, Theorem 7) intentionally violate the
  /// protocol premise |faulty| <= f; they must say so explicitly.
  ScenarioBuilder& allow_premise_violation(bool allowed = true);

  /// Validates and returns the assembled scenario. Throws ScenarioError.
  [[nodiscard]] Scenario build() const;

  /// build() + run_scenario(), the common one-shot path.
  [[nodiscard]] RunReport run() const;

 private:
  Scenario scenario_;
  bool allow_premise_violation_ = false;
};

}  // namespace bftcup::cup
