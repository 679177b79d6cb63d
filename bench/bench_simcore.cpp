// Raw simulation-core throughput: the cost floor under every Table I /
// figure sweep. Three workloads:
//
//  - timer-storm (n ∈ {16, 64, 256}): every process perpetually re-arms a
//    1-tick timer. This is pure event-queue churn — push/pop, dispatch,
//    process lookup — with no message payload at all.
//  - bcast-fanout (n ∈ {16, 64, 256}): one hub broadcasts a
//    quorum-cert-sized SETPDS message to the other n-1 processes every
//    tick. This is the discovery/PBFT hot path: per-recipient enqueue cost
//    for a payload-carrying message.
//  - pre-gst (n = 16): every process broadcasts a GETPDS to the other 15
//    every 50 ticks until GST = 30,000, under RandomDelayPolicy, so each
//    delivery lands uniformly in [send + 1, GST + δ] and tens of thousands
//    wait in the queue's page lists. This is discovery polling in a
//    partially synchronous run (Table I's partial-sync rows, adhoc/*,
//    dyn/partition-heal-before-gst), the shape that dominates the
//    paper-sweep benchmark. One simulator is reset between runs, as
//    cup::RunContext does.
//
// Each row is the median of five timed passes (by events/sec), after one
// warm-up pass at a tenth of the scale.
//
// Emits BENCH_simcore.json (machine-readable) so the repo's perf trajectory
// is recorded run over run, and prints a human table. Every row records
// host_cpus, the recording machine's core count, and the commit given on
// the command line. The embedded baselines were measured in a Release
// build on the same workloads: timer-storm and bcast-fanout on the
// pre-zero-copy core (commit f202124), pre-gst on the binary-heap far
// queue (commit 3f723b6) — speedup_vs_baseline tracks each refactor's
// effect.
//
// Usage: bench_simcore [output.json] [commit]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "msg/message.hpp"
#include "sim/simulator.hpp"

namespace bftcup::bench {
namespace {

/// events/sec of an earlier core, Release build. Keyed as
/// "<workload>/<n>".
struct BaselineEntry {
  const char* key;
  double events_per_sec;
  const char* commit;
};
/// f202124: map-based tables, deep-copy broadcast, per-send encoded_size
/// (CI reference machine). 3f723b6: far events in a binary min-heap
/// (4-core host).
constexpr BaselineEntry kBaseline[] = {
    {"timer-storm/16", 12094771, "f202124"},
    {"timer-storm/64", 8085727, "f202124"},
    {"timer-storm/256", 5916198, "f202124"},
    {"bcast-fanout/16", 603719, "f202124"},
    {"bcast-fanout/64", 580256, "f202124"},
    {"bcast-fanout/256", 495740, "f202124"},
    {"pre-gst/16", 3130612, "3f723b6"},
};

const BaselineEntry* baseline_for(const std::string& key) {
  for (const BaselineEntry& e : kBaseline) {
    if (key == e.key) return &e;
  }
  return nullptr;
}

struct Result {
  std::string workload;
  std::size_t n = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;

  [[nodiscard]] std::string key() const {
    return workload + "/" + std::to_string(n);
  }
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
  [[nodiscard]] double speedup_vs_baseline() const {
    const BaselineEntry* base = baseline_for(key());
    return base != nullptr && base->events_per_sec > 0
               ? events_per_sec() / base->events_per_sec
               : 0.0;
  }
};

sim::Simulator::Options sim_options() {
  sim::Simulator::Options options;
  options.seed = 42;
  options.net.gst = 0;
  options.net.delta = 10;
  options.horizon = kSimTimeMax / 4;
  return options;
}

// --- timer-storm -----------------------------------------------------------

class TimerStormProcess final : public sim::Process {
 public:
  TimerStormProcess(ProcessId id, std::uint64_t* budget, std::uint64_t* fires)
      : sim::Process(id), budget_(budget), fires_(fires) {}

  void on_start(sim::Context& ctx) override { ctx.set_timer(1, 0); }
  void on_message(ProcessId, const msg::Message&, sim::Context&) override {}
  void on_timer(int, sim::Context& ctx) override {
    ++*fires_;
    if (*budget_ > 0) {
      --*budget_;
      ctx.set_timer(1, 0);
    }
  }

 private:
  std::uint64_t* budget_;
  std::uint64_t* fires_;
};

Result run_timer_storm(std::size_t n, std::uint64_t target_events) {
  std::uint64_t budget = target_events;
  std::uint64_t fires = 0;
  sim::Simulator simulator(sim_options());
  for (std::size_t i = 1; i <= n; ++i) {
    simulator.add_process(std::make_unique<TimerStormProcess>(
        ProcessId(i), &budget, &fires));
  }
  const auto t0 = std::chrono::steady_clock::now();
  simulator.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;

  Result result;
  result.workload = "timer-storm";
  result.n = n;
  result.events = fires;
  result.seconds = elapsed.count();
  return result;
}

// --- bcast-fanout ----------------------------------------------------------

/// A SETPDS message the size discovery actually produces once a handful of
/// PDs have been collected: 8 signed PDs of 16 members each (~1.5 KiB).
msg::Message fat_message() {
  msg::Message m;
  m.type = msg::MsgType::kSetPds;
  for (std::uint64_t owner = 1; owner <= 8; ++owner) {
    msg::SignedPd spd;
    spd.owner = ProcessId(owner);
    for (std::uint64_t member = 1; member <= 16; ++member) {
      spd.pd.insert(ProcessId(member));
    }
    m.pds.push_back(std::make_shared<const msg::SignedPd>(std::move(spd)));
  }
  return m;
}

class FanoutHub final : public sim::Process {
 public:
  FanoutHub(ProcessId id, IdSet peers, std::uint64_t* rounds)
      : sim::Process(id), peers_(std::move(peers)), rounds_(rounds),
        payload_(fat_message()) {}

  void on_start(sim::Context& ctx) override { ctx.set_timer(1, 0); }
  void on_message(ProcessId, const msg::Message&, sim::Context&) override {}
  void on_timer(int, sim::Context& ctx) override {
    if (*rounds_ == 0) return;
    --*rounds_;
    ctx.broadcast(peers_, payload_);
    ctx.set_timer(1, 0);
  }

 private:
  IdSet peers_;
  std::uint64_t* rounds_;
  msg::Message payload_;
};

class FanoutSink final : public sim::Process {
 public:
  explicit FanoutSink(ProcessId id) : sim::Process(id) {}
  void on_start(sim::Context&) override {}
  void on_message(ProcessId, const msg::Message&, sim::Context&) override {}
};

Result run_bcast_fanout(std::size_t n, std::uint64_t target_deliveries) {
  std::uint64_t rounds = target_deliveries / (n - 1);
  sim::Simulator simulator(sim_options());
  IdSet peers;
  for (std::size_t i = 2; i <= n; ++i) peers.insert(ProcessId(i));
  simulator.add_process(
      std::make_unique<FanoutHub>(ProcessId(1), peers, &rounds));
  for (std::size_t i = 2; i <= n; ++i) {
    simulator.add_process(std::make_unique<FanoutSink>(ProcessId(i)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  simulator.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;

  Result result;
  result.workload = "bcast-fanout";
  result.n = n;
  result.events = simulator.trace().messages_delivered();
  result.seconds = elapsed.count();
  return result;
}

// --- pre-gst ---------------------------------------------------------------

constexpr SimTime kPreGst = 30'000;
constexpr SimTime kPollPeriod = 50;

/// Broadcasts one shared GETPDS to its peers every kPollPeriod ticks until
/// GST, like Discovery's polling.
class PollingProcess final : public sim::Process {
 public:
  PollingProcess(ProcessId id, IdSet peers, msg::MessageRef poll)
      : sim::Process(id), peers_(std::move(peers)), poll_(std::move(poll)) {}

  void on_start(sim::Context& ctx) override { on_timer(0, ctx); }
  void on_message(ProcessId, const msg::Message&, sim::Context&) override {}
  void on_timer(int, sim::Context& ctx) override {
    if (ctx.now() >= kPreGst) return;
    ctx.broadcast(peers_, poll_);
    ctx.set_timer(kPollPeriod, 0);
  }

 private:
  IdSet peers_;
  msg::MessageRef poll_;
};

Result run_pre_gst(std::size_t n, std::uint64_t target_deliveries) {
  sim::Simulator::Options options = sim_options();
  options.net.gst = kPreGst;
  const std::uint64_t per_run = static_cast<std::uint64_t>(n) * (n - 1) *
                                static_cast<std::uint64_t>(kPreGst /
                                                           kPollPeriod);
  const std::uint64_t runs = std::max<std::uint64_t>(1, target_deliveries /
                                                            per_run);
  const msg::MessageRef poll = msg::MessageRef::make(msg::Message{});
  sim::Simulator simulator(options);
  Result result;
  result.workload = "pre-gst";
  result.n = n;
  for (std::uint64_t run = 0; run < runs; ++run) {
    options.seed = 42 + run;
    simulator.reset(options);
    for (std::size_t i = 1; i <= n; ++i) {
      IdSet peers;
      for (std::size_t j = 1; j <= n; ++j) {
        if (j != i) peers.insert(ProcessId(j));
      }
      simulator.add_process(std::make_unique<PollingProcess>(
          ProcessId(i), std::move(peers), poll));
    }
    const auto t0 = std::chrono::steady_clock::now();
    simulator.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    result.events += simulator.trace().messages_delivered();
    result.seconds += elapsed.count();
  }
  return result;
}

// --- reporting -------------------------------------------------------------

constexpr int kTimedPasses = 5;

/// One warm-up pass at a tenth of `scale`, then the median of kTimedPasses
/// timed passes by events/sec.
template <typename Run>
Result median_pass(Run run, std::size_t n, std::uint64_t scale) {
  (void)run(n, scale / 10);
  std::vector<Result> passes;
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    passes.push_back(run(n, scale));
  }
  std::sort(passes.begin(), passes.end(),
            [](const Result& a, const Result& b) {
              return a.events_per_sec() < b.events_per_sec();
            });
  return passes[kTimedPasses / 2];
}

void write_json(const std::string& path, const std::vector<Result>& results,
                const std::string& commit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_simcore: cannot open %s\n", path.c_str());
    return;
  }
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(f, "{\n  \"bench\": \"simcore\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const BaselineEntry* base = baseline_for(r.key());
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"n\": %zu, \"events\": %llu, "
                 "\"seconds\": %.6f, \"events_per_sec\": %.0f, "
                 "\"baseline_events_per_sec\": %.0f, "
                 "\"baseline_commit\": \"%s\", "
                 "\"speedup_vs_baseline\": %.3f, \"host_cpus\": %u, "
                 "\"commit\": \"%s\"}%s\n",
                 r.workload.c_str(), r.n,
                 static_cast<unsigned long long>(r.events), r.seconds,
                 r.events_per_sec(),
                 base != nullptr ? base->events_per_sec : 0.0,
                 base != nullptr ? base->commit : "",
                 r.speedup_vs_baseline(), host_cpus, commit.c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace bftcup::bench

int main(int argc, char** argv) {
  using namespace bftcup::bench;
  const std::string out = argc > 1 ? argv[1] : "BENCH_simcore.json";
  const std::string commit = argc > 2 ? argv[2] : "unknown";

  std::vector<Result> results;
  for (std::size_t n : {std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
    results.push_back(median_pass(run_timer_storm, n, 1'500'000));
    results.push_back(median_pass(run_bcast_fanout, n, 1'500'000));
  }
  results.push_back(median_pass(run_pre_gst, 16, 1'500'000));

  std::printf("%-18s %8s %12s %10s %14s %9s\n", "workload", "n", "events",
              "seconds", "events/sec", "speedup");
  for (const Result& r : results) {
    std::printf("%-18s %8zu %12llu %10.3f %14.0f %8.2fx\n",
                r.workload.c_str(), r.n,
                static_cast<unsigned long long>(r.events), r.seconds,
                r.events_per_sec(), r.speedup_vs_baseline());
  }
  write_json(out, results, commit);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
