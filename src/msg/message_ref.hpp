// Immutable, shared message payload.
//
// A broadcast to n peers used to deep-copy the flat Message (PD vectors,
// quorum certs) once per recipient and again into every queued event.
// Protocols now build the payload once, freeze it behind a MessageRef, and
// every fan-out edge and every queued delivery is a handle copy. The
// canonical wire size is computed once at construction, so the simulator
// charges traffic metrics per send without re-encoding the payload each
// time.
//
// The handle is one pointer to a block holding the message, its cached
// size and a plain 32-bit count of the handles. It is thread-confined: a
// payload is made, shared and freed inside one run on one thread
// (BatchRunner, the only code that starts threads, gives each worker its
// own RunContext and so its own simulator). std::shared_ptr was dropped
// for that reason: its atomic count cost a locked read-modify-write per
// fan-out edge and per delivery, and its control block 16 bytes per
// payload, to guard a sharing across threads that never happens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/thread_annotations.hpp"
#include "msg/message.hpp"

namespace bftcup::msg {

class BFTCUP_THREAD_CONFINED MessageRef {
 public:
  /// Null ref. Only ever observed inside the simulator (timer events carry
  /// no payload); a delivery always holds a non-null ref.
  MessageRef() = default;

  MessageRef(const MessageRef& other) noexcept : payload_(other.payload_) {
    if (payload_ != nullptr) ++payload_->refs;
  }
  MessageRef(MessageRef&& other) noexcept
      : payload_(std::exchange(other.payload_, nullptr)) {}

  MessageRef& operator=(const MessageRef& other) noexcept {
    // Count the new holder before dropping the old payload, so assigning a
    // handle to itself (or to a copy of itself) never frees it.
    if (other.payload_ != nullptr) ++other.payload_->refs;
    release();
    payload_ = other.payload_;
    return *this;
  }
  MessageRef& operator=(MessageRef&& other) noexcept {
    Payload* const taken = std::exchange(other.payload_, nullptr);
    release();
    payload_ = taken;
    return *this;
  }

  ~MessageRef() { release(); }

  /// Takes ownership of `m`. The payload is immutable from here on — anyone
  /// wanting to alter a message (e.g. RRB path extension, Byzantine
  /// mutation) copies `**this` into a fresh Message first.
  [[nodiscard]] static MessageRef make(Message m) {
    return MessageRef(new Payload(std::move(m)));
  }

  [[nodiscard]] const Message& operator*() const { return payload_->message; }
  [[nodiscard]] const Message* operator->() const {
    return &payload_->message;
  }
  [[nodiscard]] explicit operator bool() const { return payload_ != nullptr; }

  /// Canonical wire size in bytes, cached at construction.
  [[nodiscard]] std::size_t encoded_size() const {
    return payload_->encoded_size;
  }

 private:
  struct Payload {
    explicit Payload(Message m)
        : message(std::move(m)),
          encoded_size(static_cast<std::uint32_t>(message.encoded_size())) {}
    const Message message;
    /// 32 bits, like the count, so the block stays 232 bytes; an encoded
    /// message is far below 4 GiB.
    const std::uint32_t encoded_size;
    std::uint32_t refs = 1;  ///< handles holding this payload
  };

  explicit MessageRef(Payload* payload) : payload_(payload) {}

  /// Drops this handle's count, freeing the payload with the last one.
  void release() {
    if (payload_ != nullptr && --payload_->refs == 0) delete payload_;
  }

  Payload* payload_ = nullptr;
};

}  // namespace bftcup::msg
