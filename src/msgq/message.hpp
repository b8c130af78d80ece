// Wire message: a topic frame plus an opaque payload, following the
// ZeroMQ pub/sub convention the paper's scalable monitor uses
// (Section IV: "Collectors use a publisher-subscriber message queue
// (implemented with ZeroMQ) to report events to an aggregator").
//
// Topic matching is prefix-based exactly like ZMQ_SUBSCRIBE; the empty
// filter subscribes to everything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/transport/frame.hpp"

namespace fsmon::msgq {

struct Message {
  Message() = default;
  Message(std::string topic_in, std::string payload_in)
      : topic(std::move(topic_in)), payload(std::move(payload_in)) {}

  std::string topic;
  std::string payload;
  /// Zero-copy alternative to `payload`: when set, the message's bytes
  /// live in this ref-counted frame and copying the Message is a
  /// shared_ptr bump, not a buffer copy. Exactly one of payload/frame
  /// carries data; bytes() reads whichever does.
  transport::FrameRef frame;

  /// The message body regardless of which member holds it.
  std::string_view bytes() const { return frame ? frame.chars() : std::string_view(payload); }
  std::span<const std::byte> byte_span() const {
    const auto view = bytes();
    return {reinterpret_cast<const std::byte*>(view.data()), view.size()};
  }

  /// Logical equality: same topic, same body bytes (however carried).
  friend bool operator==(const Message& a, const Message& b) {
    return a.topic == b.topic && a.bytes() == b.bytes();
  }
};

/// ZMQ-style prefix subscription match.
bool topic_matches(std::string_view filter, std::string_view topic);

/// The TCP wire frame (transport::WireFrame) of one message, as one
/// contiguous buffer:
///   u32 topic_len | topic | u32 payload_len | payload | u32 crc
std::vector<std::byte> encode_frame(const Message& message);

/// Decode one frame from the front of `buffer`. Returns the message and
/// the number of bytes consumed, or nullopt when the buffer does not yet
/// hold a complete frame. Throws std::runtime_error on CRC mismatch or a
/// structurally invalid frame.
std::optional<std::pair<Message, std::size_t>> decode_frame(
    std::span<const std::byte> buffer);

}  // namespace fsmon::msgq
