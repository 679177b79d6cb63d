#include "protocol/eval_cache.hpp"

#include "obs/span_tracer.hpp"

namespace bftcup::protocol {
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

EvalKey own_key(const EvalKeyView& view) {
  EvalKey key;
  key.strategy = view.strategy;
  key.param = view.param;
  key.view.assign(view.view.begin(), view.view.end());
  return key;
}

}  // namespace

void view_canonical(const KnowledgeView& view, Bytes& out) {
  // Length-framed, sorted-order serialization: injective on view contents,
  // so byte equality is view equality. Sized up front (one u64 per count,
  // id and owner), so the buffer grows once per call.
  std::size_t words = 2 + view.known().size();
  for (const auto& [owner, pd] : view.pds()) words += 2 + pd.size();
  out.clear();
  out.reserve(words * 8);
  append_id_set(out, view.known());
  append_u64(out, view.pds().size());
  for (const auto& [owner, pd] : view.pds()) {
    append_u64(out, owner.raw());
    append_id_set(out, pd);
  }
}

const std::optional<SinkResult>* SharedEvalCache::find_sink(
    const EvalKeyView& key) const {
  // The cache is thread-confined, so the probe runs on the run thread and
  // the span stream is replay-stable at a fixed knob setting.
  const obs::ScopedSpan span("eval.cache_probe");
  const auto it = sink_.find(key);
  return it == sink_.end() ? nullptr : &it->second;
}

void SharedEvalCache::store_sink(const EvalKeyView& key,
                                 std::optional<SinkResult> result) {
  sink_.emplace(own_key(key), std::move(result));
}

const std::optional<CoreResult>* SharedEvalCache::find_core(
    const EvalKeyView& key) const {
  const obs::ScopedSpan span("eval.cache_probe");
  const auto it = core_.find(key);
  return it == core_.end() ? nullptr : &it->second;
}

void SharedEvalCache::store_core(const EvalKeyView& key,
                                 std::optional<CoreResult> result) {
  core_.emplace(own_key(key), std::move(result));
}

}  // namespace bftcup::protocol
