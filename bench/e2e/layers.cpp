#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "protocol/sink_search.hpp"

namespace bftcup::e2e {
namespace {

class SpannedSearch final : public protocol::SinkSearch {
 public:
  explicit SpannedSearch(std::shared_ptr<const protocol::SinkSearch> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::vector<protocol::SinkCandidate> candidates(
      const protocol::KnowledgeView& view) const override {
    const obs::ScopedSpan span("membership.search");
    return inner_->candidates(view);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const std::string& cache_key() const override {
    return inner_->cache_key();
  }

 private:
  std::shared_ptr<const protocol::SinkSearch> inner_;
};

}  // namespace

void install_search_span(cup::Scenario& scenario) {
  std::shared_ptr<const protocol::SinkSearch> inner = scenario.search;
  if (!inner) {
    // The strategy execute_scenario builds when the scenario names none.
    protocol::SearchOptions options;
    options.incremental = scenario.incremental_search;
    inner = std::make_shared<protocol::ExhaustiveSinkSearch>(options);
  }
  scenario.search = std::make_shared<SpannedSearch>(std::move(inner));
}

void SpanTimes::add(const obs::SpanTrace& trace) {
  std::vector<const obs::SpanRecord*> by_start;
  by_start.reserve(trace.records.size());
  for (const obs::SpanRecord& r : trace.records) by_start.push_back(&r);
  std::sort(by_start.begin(), by_start.end(),
            [](const auto* a, const auto* b) { return a->seq < b->seq; });

  // Walk spans in start order with the chain of open ancestors on a stack;
  // a span's depth is the length of that chain when it opened.
  struct Open {
    const obs::SpanRecord* record;
    std::uint64_t children_ns;
  };
  std::vector<Open> open;
  const auto duration = [](const obs::SpanRecord* r) {
    return r->wall_end_ns - r->wall_begin_ns;
  };
  const auto close = [&] {
    const Open& top = open.back();
    const std::uint64_t total = duration(top.record);
    Times& t = by_name_[trace.names[top.record->name_id]];
    t.total_ns += total;
    t.self_ns += total - std::min(total, top.children_ns);
    ++t.count;
    open.pop_back();
  };
  for (const obs::SpanRecord* r : by_start) {
    while (open.size() > r->depth) close();
    if (!open.empty()) open.back().children_ns += duration(r);
    open.push_back({r, 0});
  }
  while (!open.empty()) close();
}

SpanTimes::Times SpanTimes::times(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? Times{} : it->second;
}

double SpanTimes::self_ms(std::string_view name) const {
  return static_cast<double>(times(name).self_ns) / 1e6;
}

double SpanTimes::total_ms(std::string_view name) const {
  return static_cast<double>(times(name).total_ns) / 1e6;
}

double SpanTimes::self_ms_prefix(std::string_view prefix) const {
  std::uint64_t ns = 0;
  for (const auto& [name, t] : by_name_) {
    if (std::string_view(name).starts_with(prefix)) ns += t.self_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanTimes::all_self_ms() const { return self_ms_prefix(""); }

std::uint64_t SpanTimes::count(std::string_view name) const {
  return times(name).count;
}

}  // namespace bftcup::e2e
