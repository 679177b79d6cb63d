#include "msg/wire.hpp"

#include <algorithm>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"

namespace bftcup::msg {
namespace {

/// A signature travels as a length-prefixed blob; anything but the exact
/// Signature width is a hostile frame.
bool get_signature(codec::Decoder& dec, crypto::Signature& out) {
  const auto blob = dec.get_bytes();
  if (!blob || blob->size() != out.bytes.size()) return false;
  std::copy(blob->begin(), blob->end(), out.bytes.begin());
  return true;
}

template <typename Sink>
void put_signature(Sink& enc, const crypto::Signature& sig) {
  enc.put_bytes(BytesView(sig.bytes.data(), sig.bytes.size()));
}

/// The frame layout, written once: `Sink` is codec::Encoder to encode and
/// codec::SizeCounter to measure.
template <typename Sink>
void put_frame(Sink& enc, const Message& m) {
  enc.put_u8(static_cast<std::uint8_t>(m.type));
  enc.put_varint(m.pds.size());
  for (const SignedPdRef& spd : m.pds) {
    enc.put_id(spd->owner);
    enc.put_id_set(spd->pd);
    put_signature(enc, spd->sig);
  }
  enc.put_u64(m.value);
  enc.put_u32(m.view);
  put_signature(enc, m.sig);
  enc.put_u8(m.cert ? 1 : 0);
  if (m.cert) {
    enc.put_u32(m.cert->view);
    enc.put_u64(m.cert->value);
    enc.put_varint(m.cert->shares.size());
    for (const SigShare& share : m.cert->shares) {
      enc.put_id(share.signer);
      put_signature(enc, share.sig);
    }
  }
  enc.put_id(m.origin);
  enc.put_id_set(m.origin_pd);
  enc.put_varint(m.path.size());
  for (ProcessId id : m.path) enc.put_id(id);
}

}  // namespace

Bytes encode_frame(const Message& m) {
  codec::Encoder enc;
  put_frame(enc, m);
  return enc.take();
}

std::size_t frame_size(const Message& m) {
  codec::SizeCounter counter;
  put_frame(counter, m);
  return counter.size();
}

std::optional<Message> decode_frame(BytesView frame) {
  codec::Decoder dec(frame);
  Message m;

  const auto type = dec.get_u8();
  if (!type || *type >= kMsgTypeCount) return std::nullopt;
  m.type = static_cast<MsgType>(*type);

  const auto pd_count = dec.get_varint();
  // Every SignedPd costs at least one byte per field, so a count beyond the
  // remaining bytes is malformed; rejecting before the loop (and before
  // reserve) keeps a hostile count from ballooning allocation.
  if (!pd_count || *pd_count > dec.remaining()) return std::nullopt;
  m.pds.reserve(static_cast<std::size_t>(*pd_count));
  for (std::uint64_t i = 0; i < *pd_count; ++i) {
    SignedPd spd;
    const auto owner = dec.get_id();
    if (!owner) return std::nullopt;
    spd.owner = *owner;
    auto pd = dec.get_id_set();
    if (!pd) return std::nullopt;
    spd.pd = std::move(*pd);
    if (!get_signature(dec, spd.sig)) return std::nullopt;
    // Made once per decoded PD; the receiver's S_PD and view share it.
    m.pds.push_back(std::make_shared<const SignedPd>(std::move(spd)));
  }

  const auto value = dec.get_u64();
  if (!value) return std::nullopt;
  m.value = *value;
  const auto view = dec.get_u32();
  if (!view) return std::nullopt;
  m.view = *view;
  if (!get_signature(dec, m.sig)) return std::nullopt;

  const auto has_cert = dec.get_u8();
  if (!has_cert || *has_cert > 1) return std::nullopt;
  if (*has_cert == 1) {
    QuorumCert cert;
    const auto cert_view = dec.get_u32();
    if (!cert_view) return std::nullopt;
    cert.view = *cert_view;
    const auto cert_value = dec.get_u64();
    if (!cert_value) return std::nullopt;
    cert.value = *cert_value;
    const auto share_count = dec.get_varint();
    if (!share_count || *share_count > dec.remaining()) return std::nullopt;
    cert.shares.reserve(static_cast<std::size_t>(*share_count));
    for (std::uint64_t i = 0; i < *share_count; ++i) {
      SigShare share;
      const auto signer = dec.get_id();
      if (!signer) return std::nullopt;
      share.signer = *signer;
      if (!get_signature(dec, share.sig)) return std::nullopt;
      cert.shares.push_back(share);
    }
    m.cert = std::move(cert);
  }

  const auto origin = dec.get_id();
  if (!origin) return std::nullopt;
  m.origin = *origin;
  auto origin_pd = dec.get_id_set();
  if (!origin_pd) return std::nullopt;
  m.origin_pd = std::move(*origin_pd);

  const auto path_count = dec.get_varint();
  if (!path_count || *path_count > dec.remaining()) return std::nullopt;
  m.path.reserve(static_cast<std::size_t>(*path_count));
  for (std::uint64_t i = 0; i < *path_count; ++i) {
    const auto hop = dec.get_id();
    if (!hop) return std::nullopt;
    m.path.push_back(*hop);
  }

  // A complete parse must consume the whole frame: trailing bytes mean the
  // frame was not produced by encode_frame and is rejected outright.
  if (!dec.ok() || !dec.at_end()) return std::nullopt;
  return m;
}

}  // namespace bftcup::msg
