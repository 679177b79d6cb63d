#include "cup/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/thread_annotations.hpp"
#include "cup/run_context.hpp"

namespace bftcup::cup {

// ---------------------------------------------------------------- Sweep ----

Sweep& Sweep::add(std::string name, Factory factory) {
  detail::validate_scenario_name(name);
  entries_.push_back({std::move(name), std::move(factory)});
  return *this;
}

Sweep& Sweep::add(std::string name, ScenarioBuilder builder) {
  return add(std::move(name),
             [builder = std::move(builder)](std::uint64_t seed) mutable {
               return builder.seed(seed).build();
             });
}

Sweep& Sweep::add(const ScenarioRegistry& registry, std::string_view name) {
  const ScenarioRegistry::Entry* entry = registry.find(name);
  if (entry == nullptr) {
    throw ScenarioError("Sweep: unknown registry scenario \"" +
                        std::string(name) + "\"");
  }
  return add(entry->name, [make = entry->make](std::uint64_t seed) {
    return make(seed).seed(seed).build();
  });
}

Sweep& Sweep::add_tag(const ScenarioRegistry& registry, std::string_view tag) {
  const auto names = registry.names_with_tag(tag);
  if (names.empty()) {
    throw ScenarioError("Sweep: no registry scenario carries tag \"" +
                        std::string(tag) + "\"");
  }
  for (const std::string& name : names) add(registry, name);
  return *this;
}

Sweep& Sweep::seeds(std::uint64_t first, std::size_t count) {
  if (count == 0) throw ScenarioError("Sweep: seed count must be positive");
  seed_first_ = first;
  seed_count_ = count;
  return *this;
}

std::size_t Sweep::run_count() const {
  return entries_.size() * seed_count_;
}

std::vector<SweepPoint> Sweep::expand() const {
  std::vector<SweepPoint> points;
  points.reserve(run_count());
  for (const Entry& entry : entries_) {
    for (std::size_t i = 0; i < seed_count_; ++i) {
      const std::uint64_t seed = seed_first_ + i;
      points.push_back({entry.name, seed, entry.make(seed)});
    }
  }
  return points;
}

// ----------------------------------------------------------- RunRecord ----

RunRecord summarize(std::string scenario, std::uint64_t seed,
                    const RunReport& report) {
  RunRecord record;
  record.scenario = std::move(scenario);
  record.seed = seed;
  record.verdict = report.verdict();
  record.agreement = report.agreement;
  record.validity = report.validity;
  record.terminated = report.all_correct_decided;
  record.latency = report.completion_time.value_or(-1);
  record.messages = report.messages_sent;
  record.delivered = report.messages_delivered;
  record.bytes = report.bytes_sent;
  record.value = report.common_value.value_or(0);
  record.digest = report.digest();
  return record;
}

obs::MetricsSnapshot merge_run_metrics(const std::vector<RunReport>& reports) {
  obs::MetricsSnapshot total;
  for (const RunReport& report : reports) total.merge(report.metrics);
  return total;
}

// ---------------------------------------------------------- BatchReport ----

namespace {

/// Nearest-rank percentile over an ascending vector (which is non-empty).
std::int64_t percentile(const std::vector<std::int64_t>& sorted, double p) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

}  // namespace

std::vector<ScenarioStats> BatchReport::scenarios() const {
  std::vector<ScenarioStats> stats;
  std::vector<std::vector<std::int64_t>> latencies;
  for (const RunRecord& run : runs_) {
    std::size_t index = 0;
    while (index < stats.size() && stats[index].scenario != run.scenario) {
      ++index;
    }
    if (index == stats.size()) {
      stats.push_back({});
      stats.back().scenario = run.scenario;
      latencies.emplace_back();
    }
    ScenarioStats& s = stats[index];
    ++s.runs;
    if (run.verdict == "SOLVED") ++s.solved;
    if (!run.agreement) ++s.agreement_violations;
    if (!run.validity) ++s.validity_violations;
    if (!run.terminated) ++s.non_terminations;
    if (run.latency >= 0) latencies[index].push_back(run.latency);
    s.messages_total += run.messages;
    s.bytes_total += run.bytes;
  }
  for (std::size_t i = 0; i < stats.size(); ++i) {
    auto& lat = latencies[i];
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    stats[i].latency_min = lat.front();
    stats[i].latency_max = lat.back();
    stats[i].latency_p50 = percentile(lat, 50.0);
    stats[i].latency_p99 = percentile(lat, 99.0);
  }
  return stats;
}

std::vector<const RunRecord*> BatchReport::runs_of(
    std::string_view scenario) const {
  std::vector<const RunRecord*> out;
  for (const RunRecord& run : runs_) {
    if (run.scenario == scenario) out.push_back(&run);
  }
  return out;
}

namespace {

constexpr const char* kRunsCsvHeader =
    "scenario,seed,verdict,agreement,validity,terminated,latency,messages,"
    "delivered,bytes,value,digest";
constexpr std::size_t kRunsCsvFields = 12;

/// RFC-4180-style field quoting: fields containing the separator, a quote,
/// or a line break are wrapped in double quotes with embedded quotes
/// doubled. Everything else is emitted verbatim.
std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Splits the CSV text into logical records: newlines inside a quoted
/// field belong to the field (csv_field quotes them), so a record may span
/// physical lines. Unquoted input splits exactly like a plain getline
/// loop. Trailing \r (CRLF input) is stripped outside quotes. Throws on an
/// unterminated quote at end of input.
std::vector<std::string> split_csv_records(const std::string& text) {
  std::vector<std::string> records;
  std::string record;
  bool quoted = false;
  for (char c : text) {
    if (c == '"') quoted = !quoted;  // "" toggles twice; net effect is none
    if (c == '\n' && !quoted) {
      if (!record.empty() && record.back() == '\r') record.pop_back();
      records.push_back(std::move(record));
      record.clear();
    } else {
      record += c;
    }
  }
  if (quoted) {
    throw std::invalid_argument(
        "BatchReport: unterminated CSV quote at end of input");
  }
  if (!record.empty()) records.push_back(std::move(record));
  return records;
}

/// Splits one CSV record, honoring csv_field's quoting.
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  bool quoted = false;
  for (std::string::size_type i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (quoted) {
    throw std::invalid_argument("BatchReport: unterminated CSV quote: " +
                                line);
  }
  out.push_back(std::move(field));
  return out;
}

/// One numeric CSV field, strictly: std::from_chars must consume the whole
/// field, so a sign on an unsigned column, trailing garbage, padding or an
/// empty field is malformed rather than silently truncated or wrapped.
template <typename T>
T csv_number(const std::string& field, const std::string& line) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [next, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc{} || next != end) {
    throw std::invalid_argument("BatchReport: malformed CSV number \"" +
                                field + "\" in row: " + line);
  }
  return value;
}

/// One boolean CSV field: runs_csv writes exactly "1" or "0".
bool csv_flag(const std::string& field, const std::string& line) {
  if (field == "1") return true;
  if (field == "0") return false;
  throw std::invalid_argument("BatchReport: malformed CSV flag \"" + field +
                              "\" in row: " + line);
}

}  // namespace

std::string BatchReport::runs_csv() const {
  std::string out = kRunsCsvHeader;
  out += '\n';
  for (const RunRecord& r : runs_) {
    out += csv_field(r.scenario);
    out += ',' + std::to_string(r.seed);
    out += ',' + csv_field(r.verdict);
    out += r.agreement ? ",1" : ",0";
    out += r.validity ? ",1" : ",0";
    out += r.terminated ? ",1" : ",0";
    out += ',' + std::to_string(r.latency);
    out += ',' + std::to_string(r.messages);
    out += ',' + std::to_string(r.delivered);
    out += ',' + std::to_string(r.bytes);
    out += ',' + std::to_string(r.value);
    out += ',' + csv_field(r.digest);
    out += '\n';
  }
  return out;
}

BatchReport BatchReport::from_runs_csv(const std::string& csv) {
  std::vector<RunRecord> runs;
  bool header = true;
  for (const std::string& line : split_csv_records(csv)) {
    if (line.empty()) continue;
    if (header) {
      if (line != kRunsCsvHeader) {
        throw std::invalid_argument("BatchReport: unexpected CSV header");
      }
      header = false;
      continue;
    }
    const auto fields = split_csv(line);
    if (fields.size() != kRunsCsvFields) {
      throw std::invalid_argument("BatchReport: malformed CSV row: " + line);
    }
    RunRecord r;
    r.scenario = fields[0];
    r.seed = csv_number<std::uint64_t>(fields[1], line);
    r.verdict = fields[2];
    r.agreement = csv_flag(fields[3], line);
    r.validity = csv_flag(fields[4], line);
    r.terminated = csv_flag(fields[5], line);
    r.latency = csv_number<std::int64_t>(fields[6], line);
    r.messages = csv_number<std::uint64_t>(fields[7], line);
    r.delivered = csv_number<std::uint64_t>(fields[8], line);
    r.bytes = csv_number<std::uint64_t>(fields[9], line);
    r.value = csv_number<std::uint64_t>(fields[10], line);
    r.digest = fields[11];
    runs.push_back(std::move(r));
  }
  return BatchReport(std::move(runs));
}

std::string BatchReport::summary_csv() const {
  std::string out =
      "scenario,runs,solved,pass_rate,agreement_violations,"
      "validity_violations,non_terminations,latency_min,latency_p50,"
      "latency_p99,latency_max,messages_total,bytes_total\n";
  for (const ScenarioStats& s : scenarios()) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.4f", s.pass_rate());
    out += csv_field(s.scenario);
    out += ',' + std::to_string(s.runs);
    out += ',' + std::to_string(s.solved);
    out += ',';
    out += rate;
    out += ',' + std::to_string(s.agreement_violations);
    out += ',' + std::to_string(s.validity_violations);
    out += ',' + std::to_string(s.non_terminations);
    out += ',' + std::to_string(s.latency_min);
    out += ',' + std::to_string(s.latency_p50);
    out += ',' + std::to_string(s.latency_p99);
    out += ',' + std::to_string(s.latency_max);
    out += ',' + std::to_string(s.messages_total);
    out += ',' + std::to_string(s.bytes_total);
    out += '\n';
  }
  return out;
}

namespace {

/// JSON string escaping for the one field callers control (scenario names);
/// verdicts and digests are library-generated and never need it, but they
/// go through the same helper so the export cannot silently emit broken
/// JSON for any record.
std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string BatchReport::to_json() const {
  std::string out = "{\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const RunRecord& r = runs_[i];
    if (i != 0) out += ',';
    out += "{\"scenario\":\"" + json_escape(r.scenario) + "\"";
    out += ",\"seed\":" + std::to_string(r.seed);
    out += ",\"verdict\":\"" + json_escape(r.verdict) + "\"";
    out += r.agreement ? ",\"agreement\":true" : ",\"agreement\":false";
    out += r.validity ? ",\"validity\":true" : ",\"validity\":false";
    out += r.terminated ? ",\"terminated\":true" : ",\"terminated\":false";
    out += ",\"latency\":" + std::to_string(r.latency);
    out += ",\"messages\":" + std::to_string(r.messages);
    out += ",\"delivered\":" + std::to_string(r.delivered);
    out += ",\"bytes\":" + std::to_string(r.bytes);
    out += ",\"value\":" + std::to_string(r.value);
    out += ",\"digest\":\"" + json_escape(r.digest) + "\"}";
  }
  out += "]}";
  return out;
}

namespace {

/// Minimal parser for the flat JSON BatchReport::to_json emits, including
/// the escape sequences json_escape produces.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      throw std::invalid_argument(std::string("BatchReport JSON: expected '") +
                                  c + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            // Strict: exactly 4 hex digits, and only the single-byte range
            // this writer emits (json_escape uses \u for control chars);
            // anything else is rejected rather than silently truncated.
            if (pos_ + 4 > text_.size()) {
              throw std::invalid_argument(
                  "BatchReport JSON: truncated \\u escape");
            }
            unsigned value = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_ + static_cast<std::size_t>(k)];
              value <<= 4;
              if (h >= '0' && h <= '9') {
                value |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                value |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                value |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                throw std::invalid_argument(
                    "BatchReport JSON: malformed \\u escape");
              }
            }
            if (value > 0xff) {
              throw std::invalid_argument(
                  "BatchReport JSON: \\u escape beyond the single-byte "
                  "range this format emits");
            }
            c = static_cast<char>(value);
            pos_ += 4;
            break;
          }
          default:
            throw std::invalid_argument(
                std::string("BatchReport JSON: unsupported escape \\") + esc);
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) {
      throw std::invalid_argument("BatchReport JSON: unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  std::int64_t integer() {
    std::int64_t v = 0;
    parse_number(v);
    return v;
  }

  std::uint64_t unsigned_integer() {
    std::uint64_t v = 0;
    parse_number(v);
    return v;
  }

  /// Only whitespace may follow the document.
  void expect_end() {
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::invalid_argument("BatchReport JSON: trailing text");
    }
  }

  bool boolean() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    throw std::invalid_argument("BatchReport JSON: expected boolean");
  }

 private:
  template <typename T>
  void parse_number(T& out) {
    skip_ws();
    const auto [next, ec] = std::from_chars(
        text_.data() + pos_, text_.data() + text_.size(), out);
    if (ec != std::errc{}) {
      throw std::invalid_argument("BatchReport JSON: expected number");
    }
    pos_ = static_cast<std::size_t>(next - text_.data());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

BatchReport BatchReport::from_json(const std::string& json) {
  JsonCursor cursor(json);
  cursor.expect('{');
  if (cursor.string() != "runs") {
    throw std::invalid_argument("BatchReport JSON: expected \"runs\"");
  }
  cursor.expect(':');
  cursor.expect('[');
  std::vector<RunRecord> runs;
  if (!cursor.consume(']')) {
    do {
      cursor.expect('{');
      RunRecord r;
      do {
        const std::string key = cursor.string();
        cursor.expect(':');
        if (key == "scenario") {
          r.scenario = cursor.string();
        } else if (key == "seed") {
          r.seed = cursor.unsigned_integer();
        } else if (key == "verdict") {
          r.verdict = cursor.string();
        } else if (key == "agreement") {
          r.agreement = cursor.boolean();
        } else if (key == "validity") {
          r.validity = cursor.boolean();
        } else if (key == "terminated") {
          r.terminated = cursor.boolean();
        } else if (key == "latency") {
          r.latency = cursor.integer();
        } else if (key == "messages") {
          r.messages = cursor.unsigned_integer();
        } else if (key == "delivered") {
          r.delivered = cursor.unsigned_integer();
        } else if (key == "bytes") {
          r.bytes = cursor.unsigned_integer();
        } else if (key == "value") {
          r.value = cursor.unsigned_integer();
        } else if (key == "digest") {
          r.digest = cursor.string();
        } else {
          throw std::invalid_argument("BatchReport JSON: unknown key \"" +
                                      key + "\"");
        }
      } while (cursor.consume(','));
      cursor.expect('}');
      runs.push_back(std::move(r));
    } while (cursor.consume(','));
    cursor.expect(']');
  }
  cursor.expect('}');
  cursor.expect_end();
  return BatchReport(std::move(runs));
}

void BatchReport::print_summary(std::FILE* out) const {
  std::fprintf(out, "%-36s %5s %9s %7s %9s %9s %9s %12s %12s\n", "scenario",
               "runs", "pass", "viol", "lat-min", "lat-p50", "lat-p99",
               "messages", "bytes");
  for (const ScenarioStats& s : scenarios()) {
    std::fprintf(out,
                 "%-36s %5zu %8.0f%% %7zu %9" PRId64 " %9" PRId64 " %9" PRId64
                 " %12" PRIu64 " %12" PRIu64 "\n",
                 s.scenario.c_str(), s.runs, 100.0 * s.pass_rate(),
                 s.agreement_violations + s.validity_violations, s.latency_min,
                 s.latency_p50, s.latency_p99, s.messages_total, s.bytes_total);
  }
}

void print_run_header(std::FILE* out, const char* experiment,
                      const char* claim) {
  std::fprintf(out, "\n=== %s ===\n    paper claim: %s\n", experiment, claim);
  std::fprintf(out, "%-34s %-20s %10s %10s %12s\n", "scenario", "verdict",
               "latency", "messages", "value");
}

void print_run_row(std::FILE* out, const std::string& name,
                   const RunReport& report) {
  std::fprintf(out,
               "%-34s %-20s %10" PRId64 " %10" PRIu64 " %12" PRIu64 "\n",
               name.c_str(), report.verdict().c_str(),
               report.completion_time.value_or(-1), report.messages_sent,
               report.common_value.value_or(0));
}

// ---------------------------------------------------------- BatchRunner ----

BatchReport BatchRunner::run(const Sweep& sweep) const {
  return run(sweep.expand());
}

namespace {

/// First-failure slot shared by the pool's workers. The lock discipline is
/// machine-checked: `first` is GUARDED_BY the mutex, so any access outside
/// store()/take() fails the Clang -Wthread-safety build.
struct FailureSlot {
  Mutex mutex;
  std::exception_ptr first BFTCUP_GUARDED_BY(mutex);

  void store(std::exception_ptr error) BFTCUP_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (!first) first = std::move(error);
  }
  [[nodiscard]] std::exception_ptr take() BFTCUP_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    return first;
  }
};

/// Drains indices [0, count) through a work-stealing std::thread pool.
/// Every worker owns one recyclable RunContext handed to each unit of work
/// it claims — the run-engine steady state. The work queue is a single
/// atomic cursor; report aggregation needs no lock because results land in
/// caller-owned slots indexed by i (disjoint per run), which also makes the
/// output order independent of thread placement. The first exception wins
/// and is rethrown after the pool drains.
void pool_execute(std::size_t count, std::size_t requested_threads,
                  const std::function<void(std::size_t, RunContext&)>& work) {
  std::size_t threads =
      requested_threads != 0
          ? requested_threads
          : std::max(1U, std::thread::hardware_concurrency());
  threads = std::min(threads, count);

  std::atomic<std::size_t> next{0};
  FailureSlot failure;

  auto worker = [&] {
    RunContext context;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        work(i, context);
      } catch (...) {
        failure.store(std::current_exception());
        return;
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (std::exception_ptr error = failure.take()) {
    std::rethrow_exception(error);
  }
}

}  // namespace

BatchReport BatchRunner::run(std::vector<SweepPoint> points) const {
  std::vector<RunRecord> records(points.size());
  pool_execute(points.size(), options_.threads,
               [&](std::size_t i, RunContext& context) {
                 records[i] = summarize(points[i].scenario, points[i].seed,
                                        context.run(points[i].config));
               });

  if (options_.verify_determinism) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      // Always a fresh context: this is the recycled-vs-fresh tripwire.
      const RunRecord serial = summarize(points[i].scenario, points[i].seed,
                                         run_scenario(points[i].config));
      if (serial.digest != records[i].digest) {
        throw std::logic_error(
            "BatchRunner: nondeterministic run detected for (" +
            points[i].scenario + ", seed " +
            std::to_string(points[i].seed) +
            "): pooled digest " + records[i].digest + " != serial digest " +
            serial.digest);
      }
    }
  }

  return BatchReport(std::move(records));
}

std::vector<RunReport> BatchRunner::run_reports(
    std::vector<SweepPoint> points) const {
  std::vector<RunReport> reports(points.size());
  pool_execute(points.size(), options_.threads,
               [&](std::size_t i, RunContext& context) {
                 reports[i] = context.run(points[i].config);
               });

  if (options_.verify_determinism) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const RunReport serial = run_scenario(points[i].config);
      if (serial.digest() != reports[i].digest()) {
        throw std::logic_error(
            "BatchRunner: nondeterministic run detected for (" +
            points[i].scenario + ", seed " + std::to_string(points[i].seed) +
            ")");
      }
    }
  }
  return reports;
}

}  // namespace bftcup::cup
