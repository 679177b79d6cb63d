#include "crypto/keys.hpp"

#include "crypto/hmac.hpp"

namespace bftcup::crypto {
namespace {

Bytes derive_process_secret(std::uint64_t key_seed, ProcessId id) {
  Bytes material;
  material.reserve(16);
  for (int i = 0; i < 8; ++i) {
    material.push_back(static_cast<std::uint8_t>(key_seed >> (8 * i)));
  }
  for (int i = 0; i < 8; ++i) {
    material.push_back(static_cast<std::uint8_t>(id.raw() >> (8 * i)));
  }
  const Digest d = sha256(material);
  return Bytes(d.begin(), d.end());
}

}  // namespace

KeyRegistry::KeyRegistry(std::uint64_t system_seed, bool memoize)
    : seed_(system_seed), memoize_(memoize) {}

const Bytes& KeyRegistry::secret_for(ProcessId id) {
  auto it = secrets_.find(id);
  if (it == secrets_.end()) {
    it = secrets_.emplace(id, derive_process_secret(seed_, id)).first;
  }
  return it->second;
}

Signature KeyRegistry::memoized_signature(ProcessId id, BytesView message,
                                          bool& memo_hit) {
  if (!memoize_) return compute_signature(id, message);
  if (const Signature* memo = sign_memo_.find(seed_, id.raw(), message)) {
    memo_hit = true;
    return *memo;
  }
  return sign_memo_.insert(seed_, id.raw(), message,
                           compute_signature(id, message));
}

Signature KeyRegistry::sign_as(ProcessId id, BytesView message) {
  bool memo_hit = false;
  return memoized_signature(id, message, memo_hit);
}

Signature KeyRegistry::compute_signature(ProcessId id, BytesView message) {
  const Bytes& secret = secret_for(id);
  const Digest tag = hmac_sha256(secret, message);
  const Digest body = sha256(message);
  Signature sig;
  std::copy(tag.begin(), tag.end(), sig.bytes.begin());
  std::copy(body.begin(), body.end(), sig.bytes.begin() + 32);
  return sig;
}

bool KeyRegistry::verify(ProcessId id, BytesView message,
                         const Signature& sig) {
  bool memo_hit = false;
  const Signature expected = memoized_signature(id, message, memo_hit);
  ++verify_stats_.lookups;
  if (memo_hit) ++verify_stats_.hits;
  return constant_time_equal(
      BytesView(expected.bytes.data(), expected.bytes.size()),
      BytesView(sig.bytes.data(), sig.bytes.size()));
}

}  // namespace bftcup::crypto
