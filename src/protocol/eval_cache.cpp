#include "protocol/eval_cache.hpp"

#include <bit>
#include <cassert>
#include <cstring>

#include "obs/span_tracer.hpp"

namespace bftcup::protocol {
namespace {

/// Writes `v` big-endian at `at` in one 8-byte store; returns the next
/// write position.
std::uint8_t* put_u64(std::uint8_t* at, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(at, &v, sizeof v);
  return at + sizeof v;
}

std::uint8_t* put_id_set(std::uint8_t* at, const IdSet& ids) {
  at = put_u64(at, ids.size());
  for (ProcessId id : ids) at = put_u64(at, id.raw());
  return at;
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
  // id and owner), then written a word at a time.
  std::size_t words = 2 + view.known().size();
  for (const auto& [owner, pd] : view.pds()) words += 2 + pd.size();
  out.resize(words * 8);
  std::uint8_t* at = put_id_set(out.data(), view.known());
  at = put_u64(at, view.pds().size());
  for (const auto& [owner, pd] : view.pds()) {
    at = put_u64(at, owner.raw());
    at = put_id_set(at, pd);
  }
  assert(at == out.data() + out.size());
}

const std::optional<SinkResult>* SharedEvalCache::find(
    const EvalKeyView& key) const {
  // The cache is thread-confined, so the probe runs on the run thread and
  // the span stream is replay-stable at a fixed knob setting.
  const obs::ScopedSpan span("eval.cache_probe");
  const auto it = memo_.find(key);
  return it == memo_.end() ? nullptr : &it->second;
}

void SharedEvalCache::store(const EvalKeyView& key,
                            std::optional<SinkResult> result) {
  memo_.emplace(own_key(key), std::move(result));
}

}  // namespace bftcup::protocol
