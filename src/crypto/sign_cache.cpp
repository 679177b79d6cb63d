#include "crypto/sign_cache.hpp"

namespace bftcup::crypto {

const Signature* SignCache::find(std::uint64_t seed, ProcessId signer,
                                 BytesView message) const {
  const auto it =
      memo_.find(detail::SigMemoKeyView{seed, signer.raw(), message});
  return it != memo_.end() ? &it->second : nullptr;
}

const Signature& SignCache::insert(std::uint64_t seed, ProcessId signer,
                                   BytesView message, const Signature& sig) {
  detail::SigMemoKey key{seed, signer.raw(),
                         Bytes(message.begin(), message.end())};
  return memo_.emplace(std::move(key), sig).first->second;
}

}  // namespace bftcup::crypto
