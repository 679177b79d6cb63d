#include "protocol/eval_cache.hpp"

#include <bit>
#include <cassert>
#include <cstring>

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

}  // namespace

Bytes view_canonical(const KnowledgeView& view, std::string_view prefix) {
  // Length-framed, sorted-order serialization: injective on view contents,
  // so byte equality is view equality. Sized up front (the prefix, then one
  // u64 per count, id and owner), then written a word at a time.
  const auto& owners = view.received().values();
  const auto& pds = view.pds();
  std::size_t words = 2 + view.known().size();
  for (const auto& pd : pds) words += 2 + pd->size();
  Bytes out(prefix.size() + words * 8);
  std::memcpy(out.data(), prefix.data(), prefix.size());
  std::uint8_t* at = put_id_set(out.data() + prefix.size(), view.known());
  at = put_u64(at, pds.size());
  for (std::size_t r = 0; r < pds.size(); ++r) {
    at = put_u64(at, owners[r].raw());
    at = put_id_set(at, *pds[r]);
  }
  assert(at == out.data() + out.size());
  return out;
}

}  // namespace bftcup::protocol
