#include "src/transport/frame.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "src/common/crc32.hpp"

namespace fsmon::transport {
namespace {

std::atomic<std::uint64_t> g_frame_copies{0};

std::uint32_t get_u32_le(std::span<const std::byte> in) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint64_t frame_copies() {
  return g_frame_copies.load(std::memory_order_relaxed);
}

namespace detail {
void count_frame_copy() {
  g_frame_copies.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

FrameRef FrameRef::adopt(std::string payload) {
  auto data = std::make_shared<Data>();
  data->owned_str = std::move(payload);
  data->view = std::span<std::byte>(
      reinterpret_cast<std::byte*>(data->owned_str.data()), data->owned_str.size());
  return FrameRef(std::move(data));
}

FrameRef FrameRef::adopt(std::vector<std::byte> payload) {
  auto data = std::make_shared<Data>();
  data->owned_vec = std::move(payload);
  data->view = std::span<std::byte>(data->owned_vec);
  return FrameRef(std::move(data));
}

FrameRef FrameRef::copy(std::span<const std::byte> payload) {
  detail::count_frame_copy();
  auto data = std::make_shared<Data>();
  data->owned_vec.assign(payload.begin(), payload.end());
  data->view = std::span<std::byte>(data->owned_vec);
  return FrameRef(std::move(data));
}

FrameRef FrameRef::borrow(std::span<std::byte> region, std::function<void()> release) {
  auto data = std::make_shared<Data>();
  data->view = region;
  data->release = std::move(release);
  return FrameRef(std::move(data));
}

std::span<std::byte> FrameRef::mutable_bytes() {
  if (data_ == nullptr) return {};
  if (data_.use_count() == 1) return data_->view;
  // Shared: detach into a private buffer (one counted copy) so other
  // retainers keep seeing the original bytes.
  detail::count_frame_copy();
  auto fresh = std::make_shared<Data>();
  fresh->owned_vec.assign(data_->view.begin(), data_->view.end());
  fresh->view = std::span<std::byte>(fresh->owned_vec);
  data_ = std::move(fresh);
  return data_->view;
}

void put_u32_le(std::byte* out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
}

std::vector<std::byte> wire_header(std::string_view topic, std::size_t payload_size) {
  std::vector<std::byte> header(8 + topic.size());
  put_u32_le(header.data(), static_cast<std::uint32_t>(topic.size()));
  std::memcpy(header.data() + 4, topic.data(), topic.size());
  put_u32_le(header.data() + 4 + topic.size(), static_cast<std::uint32_t>(payload_size));
  return header;
}

std::uint32_t wire_crc(std::span<const std::byte> header, std::span<const std::byte> payload) {
  return common::crc32(payload, common::crc32(header));
}

std::optional<WireFrame> parse_wire_frame(std::span<const std::byte> buffer) {
  if (buffer.size() < 12) return std::nullopt;
  const std::uint32_t topic_len = get_u32_le(buffer);
  // Reject absurd lengths before any arithmetic on them.
  if (topic_len > kMaxWireField) throw std::runtime_error("wire frame: topic length corrupt");
  if (buffer.size() < 12ull + topic_len) return std::nullopt;
  const std::uint32_t payload_len = get_u32_le(buffer.subspan(4 + topic_len));
  if (payload_len > kMaxWireField)
    throw std::runtime_error("wire frame: payload length corrupt");
  const std::size_t total = 12ull + topic_len + payload_len;
  if (buffer.size() < total) return std::nullopt;
  if (get_u32_le(buffer.subspan(total - 4)) != common::crc32(buffer.subspan(0, total - 4)))
    throw std::runtime_error("wire frame: CRC mismatch");
  WireFrame frame;
  frame.topic = std::string_view(reinterpret_cast<const char*>(buffer.data() + 4), topic_len);
  frame.payload = buffer.subspan(8 + topic_len, payload_len);
  frame.size = total;
  return frame;
}

}  // namespace fsmon::transport
