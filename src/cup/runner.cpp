#include "cup/runner.hpp"

#include "adversary/behaviors.hpp"
#include "common/hex.hpp"
#include "common/sys_resource.hpp"
#include "crypto/sha256.hpp"
#include "cup/cupft_node.hpp"
#include "cup/naive_node.hpp"
#include "cup/node.hpp"
#include "protocol/sink_search.hpp"

namespace bftcup::cup {
namespace {

void append_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void append_id_set(Bytes& out, const IdSet& ids) {
  append_u64(out, ids.size());
  for (ProcessId id : ids) append_u64(out, id.raw());
}

}  // namespace

Value default_proposal(ProcessId id) {
  return 1000 + id.raw();
}

std::string RunReport::verdict() const {
  if (!agreement) return "AGREEMENT-VIOLATED";
  if (!validity) return "VALIDITY-VIOLATED";
  if (!all_correct_decided) return "NO-TERMINATION";
  return "SOLVED";
}

std::string RunReport::digest() const {
  Bytes bytes;
  append_id_set(bytes, correct);
  append_u64(bytes, static_cast<std::uint64_t>(all_correct_decided) |
                        static_cast<std::uint64_t>(agreement) << 1 |
                        static_cast<std::uint64_t>(validity) << 2);
  append_u64(bytes, common_value.value_or(kNoValue));
  append_u64(bytes, static_cast<std::uint64_t>(completion_time.value_or(-1)));
  append_u64(bytes, messages_sent);
  append_u64(bytes, messages_delivered);
  append_u64(bytes, bytes_sent);
  append_u64(bytes, decisions.size());
  for (const auto& [who, decision] : decisions) {
    append_u64(bytes, who.raw());
    append_u64(bytes, decision.value);
    append_u64(bytes, static_cast<std::uint64_t>(decision.time));
  }
  append_u64(bytes, memberships.size());
  for (const auto& [who, members] : memberships) {
    append_u64(bytes, who.raw());
    append_id_set(bytes, members);
  }
  append_u64(bytes, membership_times.size());
  for (const auto& [who, time] : membership_times) {
    append_u64(bytes, who.raw());
    append_u64(bytes, static_cast<std::uint64_t>(time));
  }
  return to_hex(crypto::digest_bytes(crypto::sha256(bytes)));
}

namespace detail {

RunReport execute_scenario(
    const Scenario& scenario, sim::Simulator& simulator,
    const std::shared_ptr<protocol::SharedEvalCache>& eval_cache,
    std::uint64_t contexts_recycled) {
  // Cross-run caches are cumulative; report deltas against entry.
  const protocol::SharedEvalCache::Stats eval_stats0 = eval_cache->stats();
  const crypto::KeyRegistry::VerifyStats verify_stats0 =
      simulator.registry().verify_stats();
  // Bracket the run so the per-thread fallback counter and its once-per-run
  // warning rate limit are scoped to this scenario.
  protocol::reset_big_scc_fallbacks();

  // Observability scope (README "Observability"), installed thread-locally
  // for the whole run. Both observers are per-run: the registry's snapshot
  // becomes RunReport::metrics, and the tracer is a flight recorder whose
  // ring dies with the report it fills.
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::SpanTracer> tracer;
  if (scenario.trace_capacity > 0) {
    tracer = std::make_unique<obs::SpanTracer>(scenario.trace_capacity);
    tracer->set_sim_clock(
        [](const void* ctx) {
          return static_cast<const sim::Simulator*>(ctx)->now();
        },
        &simulator);
  }
  const obs::ObsScope obs_scope(&registry, tracer.get());

  if (scenario.make_policy || scenario.loss.enabled) {
    std::unique_ptr<sim::DelayPolicy> policy =
        scenario.make_policy ? scenario.make_policy()
                             : std::make_unique<sim::RandomDelayPolicy>();
    if (scenario.loss.enabled) {
      // The lossy wrapper goes outermost so its drop decision is asked first
      // and its jitter stretches whatever the scenario's policy scheduled.
      policy = std::make_unique<sim::LossyDelayPolicy>(std::move(policy),
                                                       scenario.loss);
    }
    simulator.set_delay_policy(std::move(policy));
  }
  if (!scenario.timeline.empty()) {
    simulator.set_fault_timeline(scenario.timeline);
  }

  std::shared_ptr<const protocol::SinkSearch> search = scenario.search;
  if (!search) search = std::make_shared<protocol::ExhaustiveSinkSearch>();

  const IdSet vertices = scenario.graph.vertices();
  const IdSet correct = vertices.set_difference(scenario.faulty);

  std::vector<Value> proposals;
  for (ProcessId id : vertices) {
    auto it = scenario.proposals.find(id);
    proposals.push_back(it != scenario.proposals.end()
                            ? it->second
                            : default_proposal(id));
  }

  // An equivocating Byzantine process "proposes" its two conflict values;
  // deciding one of them satisfies Validity's "proposed by some process".
  if (scenario.byz == ByzBehavior::kEquivocate && !scenario.faulty.empty()) {
    proposals.push_back(7770001);
    proposals.push_back(7770002);
  }

  std::size_t index = 0;
  for (ProcessId id : vertices) {
    const Value proposal = proposals[index++];
    const IdSet pd = scenario.graph.out_neighbors(id);

    if (scenario.faulty.contains(id)) {
      if (scenario.byz == ByzBehavior::kSilent) {
        simulator.add_process(std::make_unique<adversary::SilentNode>(id));
        continue;
      }
      adversary::ByzantineConfig config;
      config.advertised_pd = pd;
      if (scenario.byz == ByzBehavior::kFakePd) {
        auto it = scenario.fake_pds.find(id);
        if (it != scenario.fake_pds.end()) config.advertised_pd = it->second;
      } else if (scenario.byz == ByzBehavior::kEquivocate) {
        config.equivocate_consensus = true;
        // The adversary knows Π; hand it the whole membership to split.
        config.consensus_members = vertices;
        config.value_a = 7770001;
        config.value_b = 7770002;
      } else if (scenario.byz == ByzBehavior::kWrongValue) {
        config.wrong_decided_value = 666;
      }
      simulator.add_process(
          std::make_unique<adversary::ByzantineNode>(id, config));
      continue;
    }

    CupNodeBase::Params params;
    params.pd = pd;
    params.proposal = proposal;
    params.discovery_period = scenario.discovery_period;
    params.pbft_base_timeout = scenario.pbft_base_timeout;
    params.search = search;
    params.eval_cache = eval_cache;

    switch (scenario.mode) {
      case Mode::kAuth:
        simulator.add_process(
            std::make_unique<AuthCupNode>(id, scenario.f, std::move(params)));
        break;
      case Mode::kCupft: {
        CupftNode::Options options;
        options.require_known_closure = scenario.cupft_known_closure;
        simulator.add_process(
            std::make_unique<CupftNode>(id, std::move(params), options));
        break;
      }
      case Mode::kNaive:
        simulator.add_process(
            std::make_unique<NaiveNode>(id, std::move(params)));
        break;
    }
  }

  // Semantically trace.all_decided(correct), evaluated after *every* event
  // — which made the stop check itself an O(n)-per-event scan that
  // dominated large-n profiles. Decisions only accrue during a run, so the
  // scan can resume from the first still-undecided id: the cursor is
  // monotone, total work is O(n) per run, and the condition flips at
  // exactly the same event as the full scan.
  simulator.set_stop_condition(
      [correct, cursor = std::size_t{0}](const sim::Trace& trace) mutable {
        const auto& ids = correct.values();
        const auto& decided = trace.decisions();
        while (cursor < ids.size() && decided.contains(ids[cursor])) ++cursor;
        return cursor == ids.size();
      });
  {
    const obs::ScopedSpan run_span("run.execute");
    simulator.run();
  }

  const sim::Trace& trace = simulator.trace();
  RunReport report;
  report.correct = correct;
  report.all_correct_decided = trace.all_decided(correct);
  report.agreement = trace.agreement(correct);
  report.common_value = trace.common_value(correct);
  report.completion_time = trace.completion_time(correct);
  report.messages_sent = trace.messages_sent();
  report.messages_delivered = trace.messages_delivered();
  report.messages_dropped = trace.messages_dropped();
  report.bytes_sent = trace.bytes_sent();
  report.sent_by_type = trace.sent_by_type();
  // Hostile-wire counters come straight from the trace (per-run by
  // construction) and are copied into the registry below.
  report.frames_mutated = trace.frames_mutated();
  report.frames_rejected = trace.frames_rejected();
  report.frames_lost = trace.frames_lost();
  // The trace's flat maps are sorted by id, so these rebuilds preserve the
  // iteration (and digest serialization) order std::map gave.
  report.decisions.insert(trace.decisions().begin(), trace.decisions().end());
  report.memberships.insert(trace.memberships().begin(),
                            trace.memberships().end());
  report.membership_times.insert(trace.membership_times().begin(),
                                 trace.membership_times().end());
  const auto& verify_stats = simulator.registry().verify_stats();
  const std::uint64_t lookups = verify_stats.lookups - verify_stats0.lookups;
  const std::uint64_t sig_hits = verify_stats.hits - verify_stats0.hits;
  registry.counter("eval.requested")
      .add(eval_cache->stats().evaluations - eval_stats0.evaluations);
  registry.counter("eval.cache_hits")
      .add(eval_cache->stats().hits - eval_stats0.hits);
  registry.counter("sig.verified").add(lookups - sig_hits);
  registry.counter("sig.cached").add(sig_hits);
  registry.counter("engine.big_scc_fallbacks")
      .add(protocol::big_scc_fallbacks());
  // wire.* rows appear only on runs where the hostile wire actually acted:
  // a zero add would still intern the counter and grow every clean run's
  // snapshot.
  if (report.frames_mutated != 0) {
    registry.counter("wire.frames_mutated").add(report.frames_mutated);
    const sim::Trace::WireKindHistogram& by_kind = trace.mutated_by_kind();
    for (std::size_t i = 0; i < by_kind.size(); ++i) {
      if (by_kind[i] == 0) continue;
      registry
          .counter(std::string("wire.mutated.") +
                   sim::to_string(static_cast<sim::WireMutationKind>(i)))
          .add(by_kind[i]);
    }
  }
  if (report.frames_rejected != 0) {
    registry.counter("wire.frames_rejected").add(report.frames_rejected);
  }
  if (report.frames_lost != 0) {
    registry.counter("wire.frames_lost").add(report.frames_lost);
  }
  registry.gauge("proc.peak_rss_bytes").set_max(peak_rss_bytes());
  registry.gauge("engine.contexts_recycled").set(contexts_recycled);
  report.metrics = registry.snapshot();
  report.evaluations = report.metrics.counter("eval.requested");
  report.eval_cache_hits = report.metrics.counter("eval.cache_hits");
  report.signatures_verified = report.metrics.counter("sig.verified");
  report.signatures_cached = report.metrics.counter("sig.cached");
  report.big_scc_fallbacks = report.metrics.counter("engine.big_scc_fallbacks");
  if (tracer != nullptr) {
    report.spans = std::make_shared<const obs::SpanTrace>(tracer->take());
  }

  // Validity: every decided value was somebody's proposal.
  for (const auto& [who, decision] : report.decisions) {
    bool proposed = false;
    for (Value v : proposals) {
      if (v == decision.value) {
        proposed = true;
        break;
      }
    }
    if (!proposed) report.validity = false;
  }
  return report;
}

}  // namespace detail

}  // namespace bftcup::cup
