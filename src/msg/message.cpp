#include "msg/message.hpp"

#include "codec/encoder.hpp"
#include "msg/wire.hpp"

namespace bftcup::msg {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kGetPds:
      return "GETPDS";
    case MsgType::kSetPds:
      return "SETPDS";
    case MsgType::kGetDecidedVal:
      return "GETDECIDEDVAL";
    case MsgType::kDecidedVal:
      return "DECIDEDVAL";
    case MsgType::kPbftPrePrepare:
      return "PBFT-PREPREPARE";
    case MsgType::kPbftPrepare:
      return "PBFT-PREPARE";
    case MsgType::kPbftCommit:
      return "PBFT-COMMIT";
    case MsgType::kPbftViewChange:
      return "PBFT-VIEWCHANGE";
    case MsgType::kPbftNewView:
      return "PBFT-NEWVIEW";
    case MsgType::kPbftDecide:
      return "PBFT-DECIDE";
    case MsgType::kRrbForward:
      return "RRB-FORWARD";
  }
  return "?";
}

Bytes SignedPd::payload(ProcessId owner, const IdSet& pd) {
  Bytes out;
  payload_into(owner, pd, out);
  return out;
}

void SignedPd::payload_into(ProcessId owner, const IdSet& pd, Bytes& out) {
  codec::Encoder enc(std::move(out));
  enc.put_string("pd");  // domain separation from PBFT payloads
  enc.put_id(owner);
  enc.put_id_set(pd);
  out = enc.take();
}

Bytes pbft_payload(MsgType phase, std::uint32_t view, Value value) {
  codec::Encoder enc;
  enc.put_string("pbft");
  enc.put_u8(static_cast<std::uint8_t>(phase));
  enc.put_u32(view);
  enc.put_u64(value);
  return enc.take();
}

Bytes decided_val_payload(Value value) {
  codec::Encoder enc;
  enc.put_string("dval");  // domain separation from PBFT and PD payloads
  enc.put_u64(value);
  return enc.take();
}

std::size_t Message::encoded_size() const {
  // bytes_sent predates encode_frame's cert-presence byte and the golden
  // digests hash it, so the metric is the frame minus that one byte.
  return frame_size(*this) - 1;
}

}  // namespace bftcup::msg
