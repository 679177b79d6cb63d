// Scenario runner: knowledge connectivity graph in, verdict out.
//
// Builds a simulator from a graph plus fault/behavior assignments, runs the
// chosen protocol, and distills the trace into the quantities every
// experiment reports (termination, agreement, validity, latency, traffic).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cup/node_base.hpp"
#include "graph/digraph.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bftcup::cup {

enum class Mode {
  kAuth,   ///< AuthCupNode: knows f (authenticated BFT-CUP, Section III)
  kCupft,  ///< CupftNode: unknown f (BFT-CUPFT, Section VI)
  kNaive,  ///< NaiveNode: unknown f, unsound rule (Section IV witness)
};

enum class ByzBehavior {
  kSilent,      ///< never sends
  kFakePd,      ///< participates, advertises a fake own PD
  kEquivocate,  ///< fake PD honest, equivocates in consensus
  kWrongValue,  ///< serves a bogus DECIDEDVAL
};

struct Scenario {
  graph::Digraph graph;
  std::size_t f = 1;  ///< given to kAuth nodes; ground truth elsewhere
  Mode mode = Mode::kAuth;
  IdSet faulty;
  ByzBehavior byz = ByzBehavior::kSilent;
  /// Fake PDs for kFakePd (defaults to the true PD when absent).
  std::map<ProcessId, IdSet> fake_pds;
  /// Proposals (default: 1000 + id).
  std::map<ProcessId, Value> proposals;

  sim::Simulator::Options sim;
  /// Lossy-network fault model (README "Hostile wire"): seeded drop/jitter/
  /// burst loss wrapped around the delay policy (the scenario's make_policy
  /// or the default). Disabled by default; `sim.wire` holds the byte-level
  /// mutation config. Both break the paper's reliable-channel premise, so
  /// Theorem 1 liveness is out of scope while they are active — safety
  /// (agreement, validity, no forged senders or spliced certs) is not.
  sim::LossConfig loss;
  /// Time-scheduled fault script (crash/recover, link and partition windows,
  /// late joins). Empty by default; see ScenarioBuilder's fluent fault API.
  sim::FaultTimeline timeline;
  SimTime discovery_period = 50;
  SimTime pbft_base_timeout = 600;
  /// Optional custom delay policy (e.g. GroupStretchPolicy for Theorem 7).
  std::function<std::unique_ptr<sim::DelayPolicy>()> make_policy;
  std::shared_ptr<const protocol::SinkSearch> search;  ///< default: exhaustive
  /// kCupft only: enable the knowledge-closure guard (see CupftNode).
  bool cupft_known_closure = false;

  // --- membership-engine cache knobs (README "Membership engine caching").
  // All results are pure functions of their inputs, so every knob leaves
  // run digests bit-identical; they exist for A/B benchmarks and the
  // cache-invariance test suite. Signature memoization is `sim.verify_cache`.
  /// Share one evaluation memo (canonical view -> sink/core result) across all
  /// correct nodes of the run.
  bool eval_cache = true;
  /// Read nowhere in the library; has no effect. Kept only because the
  /// end-to-end benchmark harness (bench/e2e/layers.cpp) still copies it
  /// into SearchOptions::incremental.
  bool incremental_search = true;

  /// Span flight-recorder capacity in records; 0 (default) disables
  /// tracing entirely — no tracer is installed and span sites cost one
  /// thread-local load. Nonzero attaches a SpanTracer over the run and
  /// exports RunReport::spans (Chrome trace JSON via obs/trace_export.hpp).
  std::size_t trace_capacity = 0;
};

struct RunReport {
  IdSet correct;
  bool all_correct_decided = false;
  bool agreement = true;
  bool validity = true;  ///< decided values were proposed by someone
  std::optional<Value> common_value;
  std::optional<SimTime> completion_time;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// Messages lost to fault-timeline events (always 0 without a timeline).
  // cup-lint: digest-excluded(appending it would invalidate every golden digest)
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Per-message-type sent counts (traffic shape; a coverage feature for the
  /// adversary explorer). Excluded from digest() like messages_dropped.
  // cup-lint: digest-excluded(coverage feature; golden digests predate it)
  sim::Trace::MsgHistogram sent_by_type{};
  // Mirrors of `metrics` (below) that the benchmark harnesses and the
  // explorer's coverage signature read. Each is set once: copied from the
  // snapshot's standard name, or copied into it. Like messages_dropped they
  // are excluded from digest(): they vary with the cache knobs and the
  // executing context while the replayed behavior does not.
  // cup-lint: digest-excluded(cache knob, behavior-neutral)
  std::uint64_t evaluations = 0;       ///< membership evaluations requested
  // cup-lint: digest-excluded(cache knob, behavior-neutral)
  std::uint64_t eval_cache_hits = 0;   ///< served by the shared eval memo
  // cup-lint: digest-excluded(cache knob, behavior-neutral)
  std::uint64_t signatures_verified = 0;  ///< HMAC verifications computed
  // cup-lint: digest-excluded(cache knob, behavior-neutral)
  std::uint64_t signatures_cached = 0;    ///< served by the signature memo
  /// Always 0; has no effect. Kept only because the end-to-end benchmark
  /// harness (bench/e2e/e2e_bench.cpp) still reads it.
  // cup-lint: digest-excluded(inert field, always zero)
  std::uint64_t arena_bytes_peak = 0;
  /// SCCs routed through the big-SCC certification path (sink_search.hpp)
  /// during this run — a scale diagnostic: nonzero means the topology grew
  /// components past the enumeration caps and candidate coverage switched
  /// from exhaustive to certify-plus-sample.
  // cup-lint: digest-excluded(diagnostic counter, behavior-neutral)
  std::uint64_t big_scc_fallbacks = 0;
  // Hostile-wire counters (README "Hostile wire"). Zero whenever the wire
  // layer and loss model are off, and excluded from digest() like every
  // post-corpus field: the golden serialization predates them.
  /// Deliveries whose encoded frame the WireMutator perturbed.
  // cup-lint: digest-excluded(hostile-wire counter; golden digests predate it)
  std::uint64_t frames_mutated = 0;
  /// Mutated frames the hardened decode path refused (counted, dropped).
  // cup-lint: digest-excluded(hostile-wire counter; golden digests predate it)
  std::uint64_t frames_rejected = 0;
  /// Sends the lossy-network model dropped on the wire.
  // cup-lint: digest-excluded(hostile-wire counter; golden digests predate it)
  std::uint64_t frames_lost = 0;
  // Observability artifacts (src/obs/). Observation only, by the layer's
  // determinism contract; cup_lint R3's obs clause rejects any obs:: field
  // that reaches digest(), on top of the marker discipline below.
  /// The run's metrics: the snapshot of its run-local registry, always
  /// collected. The counters above mirror this snapshot's standard names.
  // cup-lint: digest-excluded(observability snapshot, behavior-neutral by contract)
  obs::MetricsSnapshot metrics;
  /// Span flight-recorder contents when Scenario::trace_capacity > 0;
  /// null otherwise. Shared so copies of the report stay cheap.
  // cup-lint: digest-excluded(observability trace; wall-clock values differ every run)
  std::shared_ptr<const obs::SpanTrace> spans;
  std::map<ProcessId, sim::Decision> decisions;
  std::map<ProcessId, IdSet> memberships;
  std::map<ProcessId, SimTime> membership_times;

  /// One-line verdict for experiment tables.
  [[nodiscard]] std::string verdict() const;

  /// Hex SHA-256 over the report fields, in a fixed serialization order.
  /// Two runs of the same (scenario, seed) must produce equal digests
  /// regardless of which thread executed them — the bit-replay guarantee
  /// BatchRunner asserts. `messages_dropped` is deliberately NOT hashed:
  /// the serialization is pinned by determinism_test's golden corpus, and
  /// appending fields would invalidate every recorded digest.
  [[nodiscard]] std::string digest() const;
};

/// One-shot run: RunContext().run(scenario) (cup/run_context.hpp).
[[nodiscard]] RunReport run_scenario(const Scenario& scenario);

/// Default proposal for a process (kept stable across experiments).
[[nodiscard]] Value default_proposal(ProcessId id);

namespace detail {

/// RunContext's run body. `simulator` must be freshly constructed or reset
/// for the scenario's sim options; `eval_cache`'s memo flag must match
/// scenario.eval_cache; `contexts_recycled` counts the prior runs the
/// executing context served. Cache counters in the report are deltas
/// against the entry-time stats, so cumulative cross-run caches report
/// per-run figures; every metric is collected in a registry local to this
/// call.
[[nodiscard]] RunReport execute_scenario(
    const Scenario& scenario, sim::Simulator& simulator,
    const std::shared_ptr<protocol::SharedEvalCache>& eval_cache,
    std::uint64_t contexts_recycled);

}  // namespace detail

}  // namespace bftcup::cup
