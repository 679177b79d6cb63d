#include "codec/encoder.hpp"

namespace bftcup::codec {

void Encoder::put_u8(std::uint8_t v) { out_.push_back(v); }

void Encoder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Encoder::put_bytes(BytesView data) {
  put_varint(data.size());
  out_.insert(out_.end(), data.begin(), data.end());
}

void Encoder::put_string(std::string_view s) {
  put_varint(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void Encoder::put_id(ProcessId id) { put_varint(id.raw()); }

void Encoder::put_id_set(const IdSet& ids) {
  put_varint(ids.size());
  for (ProcessId id : ids) put_id(id);
}

void SizeCounter::put_varint(std::uint64_t v) {
  // The byte count Encoder::put_varint emits.
  while (v >= 0x80) {
    ++size_;
    v >>= 7;
  }
  ++size_;
}

void SizeCounter::put_bytes(BytesView data) {
  put_varint(data.size());
  size_ += data.size();
}

void SizeCounter::put_id_set(const IdSet& ids) {
  put_varint(ids.size());
  for (ProcessId id : ids) put_id(id);
}

}  // namespace bftcup::codec
