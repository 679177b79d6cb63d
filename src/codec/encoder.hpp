// Deterministic binary encoding for signed payloads and wire messages.
//
// Signatures are computed over bytes, so payload encoding must be canonical:
// little-endian fixed ints, LEB128 varints for lengths, and IdSets emitted in
// sorted order (FlatSet already guarantees that).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace bftcup::codec {

class Encoder {
 public:
  Encoder() = default;

  /// Encodes into `reuse`'s storage: the buffer is cleared but its capacity
  /// is kept, so hot paths that encode the same payload shape repeatedly
  /// (signature verification loops) stop allocating per call. Retrieve the
  /// result with take().
  explicit Encoder(Bytes&& reuse) : out_(std::move(reuse)) { out_.clear(); }

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_varint(std::uint64_t v);
  void put_bytes(BytesView data);          // length-prefixed
  void put_string(std::string_view s);     // length-prefixed
  void put_id(ProcessId id);
  void put_id_set(const IdSet& ids);       // count-prefixed, sorted

  [[nodiscard]] const Bytes& bytes() const { return out_; }
  [[nodiscard]] Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Encoder's counting twin: the same put_* calls add up the bytes Encoder
/// would append, without writing or allocating. Lets one layout routine,
/// templated over the two, both size and encode a payload.
class SizeCounter {
 public:
  void put_u8(std::uint8_t /*v*/) { size_ += 1; }
  void put_u32(std::uint32_t /*v*/) { size_ += 4; }
  void put_u64(std::uint64_t /*v*/) { size_ += 8; }
  void put_varint(std::uint64_t v);
  void put_bytes(BytesView data);
  void put_id(ProcessId id) { put_varint(id.raw()); }
  void put_id_set(const IdSet& ids);

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

}  // namespace bftcup::codec
