// Raw simulation-core throughput: the cost floor under every Table I /
// figure sweep. Two workloads, each at n ∈ {16, 64, 256} processes:
//
//  - timer-storm: every process perpetually re-arms a 1-tick timer. This is
//    pure event-queue churn — push/pop, dispatch, process lookup — with no
//    message payload at all.
//  - bcast-fanout: one hub broadcasts a quorum-cert-sized SETPDS message to
//    the other n-1 processes every tick. This is the discovery/PBFT hot
//    path: per-recipient enqueue cost for a payload-carrying message.
//
// Emits BENCH_simcore.json (machine-readable) so the repo's perf trajectory
// is recorded run over run, and prints a human table. The embedded baseline
// was measured on the pre-zero-copy core (commit f202124, Release, same
// workloads) — speedup_vs_baseline tracks the refactor's effect.
//
// Usage: bench_simcore [output.json]
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "msg/message.hpp"
#include "sim/simulator.hpp"

namespace bftcup::bench {
namespace {

/// events/sec measured at commit f202124 (map-based tables, deep-copy
/// broadcast, per-send encoded_size), Release build on the CI reference
/// machine. Keyed as "<workload>/<n>".
struct BaselineEntry {
  const char* key;
  double events_per_sec;
};
constexpr BaselineEntry kBaseline[] = {
    {"timer-storm/16", 12094771},  {"timer-storm/64", 8085727},
    {"timer-storm/256", 5916198},  {"bcast-fanout/16", 603719},
    {"bcast-fanout/64", 580256},   {"bcast-fanout/256", 495740},
};

double baseline_for(const std::string& key) {
  for (const BaselineEntry& e : kBaseline) {
    if (key == e.key) return e.events_per_sec;
  }
  return 0.0;
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

// --- reporting -------------------------------------------------------------

void write_json(const std::string& path, const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_simcore: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"simcore\",\n");
  std::fprintf(f, "  \"baseline_commit\": \"f202124 (pre zero-copy core)\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const double base = baseline_for(r.key());
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"n\": %zu, \"events\": %llu, "
                 "\"seconds\": %.6f, \"events_per_sec\": %.0f, "
                 "\"baseline_events_per_sec\": %.0f, "
                 "\"speedup_vs_baseline\": %.3f}%s\n",
                 r.workload.c_str(), r.n,
                 static_cast<unsigned long long>(r.events), r.seconds,
                 r.events_per_sec(), base,
                 base > 0 ? r.events_per_sec() / base : 0.0,
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

  std::vector<Result> results;
  std::printf("%-18s %8s %12s %10s %14s %9s\n", "workload", "n", "events",
              "seconds", "events/sec", "speedup");
  for (std::size_t n : {std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
    for (int pass = 0; pass < 2; ++pass) {
      // Pass 0 is a warm-up at 1/10 scale; only pass 1 is recorded.
      const std::uint64_t scale = pass == 0 ? 150'000 : 1'500'000;
      Result timer = run_timer_storm(n, scale);
      Result bcast = run_bcast_fanout(n, scale);
      if (pass == 0) continue;
      for (const Result* rp : {&timer, &bcast}) {
        const Result& r = *rp;
        const double base = baseline_for(r.key());
        std::printf("%-18s %8zu %12llu %10.3f %14.0f %8.2fx\n",
                    r.workload.c_str(), r.n,
                    static_cast<unsigned long long>(r.events), r.seconds,
                    r.events_per_sec(),
                    base > 0 ? r.events_per_sec() / base : 0.0);
        results.push_back(r);
      }
    }
  }
  write_json(out, results);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
