// RAII span tracing over the engine's hot layers (README "Observability").
//
// A SpanTracer is a per-run flight recorder: a fixed-capacity ring of
// SpanRecords, each carrying the span's interned name, nesting depth, a
// monotone start sequence, sim-time begin/end (the simulator clock the run
// replays on) and wall-time begin/end (steady-clock nanoseconds, export
// only). When the ring fills, the oldest records are overwritten and the
// drop count reported — a crashed or slow run always keeps its most recent
// window, which is the one that explains it.
//
// Determinism contract: tracing is *observation only*. Sites open spans
// through the thread-local obs::ScopedSpan, which is a single thread-local
// load + branch when no tracer is installed (the near-zero disabled path).
// The tracer is thread-confined to the run's own thread, like every cache,
// and a run executes entirely on that thread. Wall times
// never feed a digest, a decision, or any replayed state — cup_lint R2/R3
// pin the only steady_clock call and the RunReport fields.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace bftcup::obs {

/// Sim-clock seam: the tracer reads the run's logical clock through a plain
/// function pointer + context so obs/ depends on nothing above common/.
using SimClockFn = SimTime (*)(const void* ctx);

struct SpanRecord {
  std::uint32_t name_id = 0;  ///< index into SpanTrace::names
  std::uint32_t depth = 0;    ///< nesting depth at entry (0 = top level)
  std::uint64_t seq = 0;      ///< monotone start order within the run
  SimTime sim_begin = 0;
  SimTime sim_end = 0;
  std::uint64_t wall_begin_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::uint64_t arg = 0;  ///< site-defined payload (SCC size, view, ...)
};

/// Extracted, self-contained trace: what RunReport::spans carries and what
/// the Chrome trace-event exporter consumes. Records are in completion
/// order (spans close inner-first); `seq` recovers start order.
struct SpanTrace {
  std::vector<std::string> names;
  std::vector<SpanRecord> records;
  std::uint64_t dropped = 0;   ///< records overwritten by ring wrap-around
  std::uint64_t started = 0;   ///< spans opened over the run
};

class ScopedSpan;

/// The flight recorder. Thread-confined to the run thread; reached only
/// through obs::current_tracer().
class BFTCUP_THREAD_CONFINED SpanTracer {
 public:
  explicit SpanTracer(std::size_t capacity);

  void set_sim_clock(SimClockFn fn, const void* ctx) {
    sim_clock_ = fn;
    sim_ctx_ = ctx;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t started() const { return seq_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }

  /// Interns a span-site name. Sites pass string literals; the pointer
  /// doubles as the cache key, so re-interning a seen literal is a short
  /// vector scan.
  std::uint32_t intern(const char* name);

  [[nodiscard]] SimTime sim_now() const {
    return sim_clock_ != nullptr ? sim_clock_(sim_ctx_) : 0;
  }

  /// Closes the recorder and extracts everything it held.
  [[nodiscard]] SpanTrace take();

 private:
  friend class ScopedSpan;

  void record(SpanRecord rec);

  std::size_t capacity_;
  std::vector<SpanRecord> ring_;
  std::uint64_t recorded_ = 0;  ///< total records written (>= ring size)
  std::uint64_t seq_ = 0;       ///< spans started
  std::uint32_t depth_ = 0;     ///< currently open spans
  SimClockFn sim_clock_ = nullptr;
  const void* sim_ctx_ = nullptr;
  std::vector<const char*> name_ptrs_;  ///< intern cache, index = name_id
  std::vector<std::string> names_;
};

/// Monotonic wall clock in nanoseconds. The process-wide origin is
/// arbitrary; only differences and intra-process ordering are meaningful.
/// This is the single audited wall-clock seam of the codebase outside
/// benches — see the R2 marker at its definition.
[[nodiscard]] std::uint64_t wall_now_ns();

/// Thread-local observer accessors: nullptr outside an ObsScope.
[[nodiscard]] MetricsRegistry* current_metrics();
[[nodiscard]] SpanTracer* current_tracer();

/// RAII thread-local install: execute_scenario brackets the run body with
/// one, so every site below it observes the run's registry/tracer without
/// plumbing arguments through the stack.
class ObsScope {
 public:
  ObsScope(MetricsRegistry* metrics, SpanTracer* tracer);
  ~ObsScope();
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  MetricsRegistry* previous_metrics_;
  SpanTracer* previous_tracer_;
};

/// The site-facing RAII span. Constructing with the current tracer absent
/// (or a nullptr name) costs one thread-local load and a branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t arg = 0)
      : tracer_(current_tracer()) {
    if (tracer_ != nullptr && name != nullptr) {
      begin(name, arg);
    } else {
      tracer_ = nullptr;
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name, std::uint64_t arg);
  void end();

  SpanTracer* tracer_;
  std::uint32_t name_id_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t arg_ = 0;
  SimTime sim_begin_ = 0;
  std::uint64_t wall_begin_ns_ = 0;
};

}  // namespace bftcup::obs
