// Self-describing wire frame for msg::Message — the byte format the
// hostile-wire layer (sim/wire_mutator.hpp) mutates and the hardened decode
// path parses.
//
// The simulator normally delivers structs by reference and only uses the
// codec for signed payloads and the bytes_sent metric. The hostile-wire
// delivery mode instead round-trips every targeted delivery through
// encode_frame -> (mutation) -> decode_frame, so the real codec::Decoder and
// the full message-parse path face every byte the adversary can put on the
// wire. decode_frame is therefore a hard trust boundary: any malformed frame
// must come back as nullopt — never a crash, never UB, never a partially
// initialized message.
//
// Layout: type, pds (count + owner/pd/sig each), value, view, sig, a
// cert-presence flag byte and, when set, the cert (view, value, shares),
// then origin, origin_pd and path. Message::encoded_size() — the
// bytes_sent metric — is this frame's size minus the cert-presence byte:
// the metric predates the flag, and the golden digests (RunReport::digest()
// hashes bytes_sent) pin it. frame_size() walks the same layout through a
// byte counter, so measuring a frame allocates nothing.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "msg/message.hpp"

namespace bftcup::msg {

/// Encodes `m` as a self-describing frame (see file comment for the layout).
[[nodiscard]] Bytes encode_frame(const Message& m);

/// encode_frame(m).size(), counted without encoding.
[[nodiscard]] std::size_t frame_size(const Message& m);

/// Strict inverse of encode_frame. Returns nullopt when the frame is
/// malformed in any way: unknown MsgType, failed or non-canonical primitive
/// read (codec::Decoder rejects overlong varints), a signature blob that is
/// not exactly the Signature width, a count prefix larger than the bytes
/// that could back it, a cert-presence flag outside {0,1}, or trailing
/// bytes after a complete parse (Decoder::at_end() is enforced at the
/// exit). Never throws and never reads out of bounds.
[[nodiscard]] std::optional<Message> decode_frame(BytesView frame);

}  // namespace bftcup::msg
