#include "src/msgq/message.hpp"

#include <stdexcept>

namespace fsmon::msgq {

bool topic_matches(std::string_view filter, std::string_view topic) {
  return topic.size() >= filter.size() && topic.substr(0, filter.size()) == filter;
}

std::vector<std::byte> encode_frame(const Message& message) {
  const std::span<const std::byte> body = message.byte_span();
  if (message.topic.size() > transport::kMaxWireField || body.size() > transport::kMaxWireField)
    throw std::invalid_argument("msgq frame too large");
  std::vector<std::byte> out = transport::wire_header(message.topic, body.size());
  const std::uint32_t crc = transport::wire_crc(out, body);
  out.insert(out.end(), body.begin(), body.end());
  out.resize(out.size() + 4);
  transport::put_u32_le(out.data() + out.size() - 4, crc);
  return out;
}

std::optional<std::pair<Message, std::size_t>> decode_frame(
    std::span<const std::byte> buffer) {
  const auto frame = transport::parse_wire_frame(buffer);
  if (!frame) return std::nullopt;
  Message message;
  message.topic = frame->topic;
  message.payload.assign(reinterpret_cast<const char*>(frame->payload.data()),
                         frame->payload.size());
  return std::make_pair(std::move(message), frame->size);
}

}  // namespace fsmon::msgq
