// Per-process signing capability.
//
// A Signer binds one ProcessId to the shared KeyRegistry. Handing a process
// only its Signer (never the registry's sign_as) is what makes signatures
// unforgeable in the simulation: Byzantine code can sign anything *as
// itself*, but cannot produce another process's signature.
#pragma once

#include "crypto/keys.hpp"

namespace bftcup::crypto {

class Signer {
 public:
  Signer(ProcessId id, KeyRegistry* registry) : id_(id), registry_(registry) {}

  [[nodiscard]] ProcessId id() const { return id_; }

  [[nodiscard]] Signature sign(BytesView message) const {
    return registry_->sign_as(id_, message);
  }

 private:
  ProcessId id_;
  KeyRegistry* registry_;
};

/// Verification capability: any process may check anyone's signature.
/// Every call goes through KeyRegistry::verify, so a repeated (signer,
/// payload) pair — re-delivered SignedPds, quorum certificates, forgery
/// floods — is served from the registry's sign memo when one is attached
/// (see crypto/sign_cache.hpp).
class Verifier {
 public:
  explicit Verifier(KeyRegistry* registry) : registry_(registry) {}

  [[nodiscard]] bool verify(ProcessId signer, BytesView message,
                            const Signature& sig) const {
    return registry_->verify(signer, message, sig);
  }

 private:
  KeyRegistry* registry_;
};

}  // namespace bftcup::crypto
