#include "src/core/event.hpp"

#include <atomic>
#include <bit>
#include <cstring>

#include "src/common/crc32.hpp"
#include "src/common/string_util.hpp"

namespace fsmon::core {

using common::ErrorCode;
using common::Result;
using common::Status;

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kCreate: return "CREATE";
    case EventKind::kModify: return "MODIFY";
    case EventKind::kAttrib: return "ATTRIB";
    case EventKind::kClose: return "CLOSE";
    case EventKind::kOpen: return "OPEN";
    case EventKind::kDelete: return "DELETE";
    case EventKind::kMovedFrom: return "MOVED_FROM";
    case EventKind::kMovedTo: return "MOVED_TO";
  }
  return "?";
}

std::optional<EventKind> parse_event_kind(std::string_view text) {
  static constexpr EventKind kAll[] = {
      EventKind::kCreate, EventKind::kModify,    EventKind::kAttrib, EventKind::kClose,
      EventKind::kOpen,   EventKind::kDelete,    EventKind::kMovedFrom,
      EventKind::kMovedTo,
  };
  for (EventKind k : kAll) {
    if (to_string(k) == text) return k;
  }
  return std::nullopt;
}

std::string StdEvent::full_path() const {
  if (watch_root == "/" || watch_root.empty()) return path;
  return watch_root + path;
}

std::string StdEvent::parent_path() const {
  if (!has_path()) return "/";
  return common::parent_path(path);
}

std::string StdEvent::base_name() const {
  if (!has_path()) return "";
  return common::base_name(path);
}

std::string to_inotify_line(const StdEvent& event) {
  std::string line;
  line.reserve(event.watch_root.size() + event.path.size() + 24);
  line += event.watch_root;
  line += ' ';
  line += to_string(event.kind);
  if (event.is_dir) line += ",ISDIR";
  line += ' ';
  line += event.path;
  return line;
}

namespace {

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32_at(std::span<const std::byte> in, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[offset + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

void write_u32_at(std::span<std::byte> out, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[offset + static_cast<std::size_t>(i)] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

void write_u64_at(std::span<std::byte> out, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[offset + static_cast<std::size_t>(i)] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

std::byte* raw_u32(std::byte* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 4);
    return p + 4;
  }
  for (int i = 0; i < 4; ++i) *p++ = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  return p;
}

std::byte* raw_u64(std::byte* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
    return p + 8;
  }
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  return p;
}

std::byte* raw_string(std::byte* p, const std::string& s) {
  p = raw_u64(p, s.size());
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

bool get_u64(std::span<const std::byte> in, std::size_t& offset, std::uint64_t& v) {
  if (in.size() - offset < 8) return false;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in.data() + offset, 8);
  } else {
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(in[offset + static_cast<std::size_t>(i)]) << (8 * i);
  }
  offset += 8;
  return true;
}

bool get_string(std::span<const std::byte> in, std::size_t& offset, std::string& s) {
  std::uint64_t len = 0;
  if (!get_u64(in, offset, len)) return false;
  if (len > (1ull << 30) || in.size() - offset < len) return false;
  s.assign(reinterpret_cast<const char*>(in.data() + offset), len);
  offset += len;
  return true;
}

std::atomic<std::uint64_t> g_serialize_calls{0};
std::atomic<std::uint64_t> g_deserialize_calls{0};

// Uncounted codec cores. The public entry points bump the per-event
// counters; the batch codecs call these and account a whole frame with
// one fetch_add so the counters still advance once per event without an
// atomic op per event on the hot path.
std::size_t encoded_event_size(const StdEvent& event) {
  return 26 + 3 * 8 + event.watch_root.size() + event.path.size() + event.source.size();
}

std::byte* raw_event(std::byte* p, const StdEvent& event) {
  p = raw_u64(p, event.id);
  *p++ = static_cast<std::byte>(event.kind);
  *p++ = static_cast<std::byte>(event.is_dir ? 1 : 0);
  p = raw_u64(p, event.cookie);
  p = raw_u64(p, static_cast<std::uint64_t>(event.timestamp.time_since_epoch().count()));
  p = raw_string(p, event.watch_root);
  p = raw_string(p, event.path);
  p = raw_string(p, event.source);
  return p;
}

void serialize_event_impl(const StdEvent& event, std::vector<std::byte>& out) {
  // Size once, then write through a raw pointer: per-byte push_back
  // capacity checks dominate the encode cost on the batched hot path.
  const std::size_t base = out.size();
  out.resize(base + encoded_event_size(event));
  raw_event(out.data() + base, event);
}

Result<std::size_t> deserialize_event_impl(std::span<const std::byte> in,
                                           StdEvent& event);

}  // namespace

CodecCounters codec_counters() {
  return CodecCounters{g_serialize_calls.load(std::memory_order_relaxed),
                       g_deserialize_calls.load(std::memory_order_relaxed)};
}

void serialize_event(const StdEvent& event, std::vector<std::byte>& out) {
  g_serialize_calls.fetch_add(1, std::memory_order_relaxed);
  serialize_event_impl(event, out);
}

std::vector<std::byte> serialize_event(const StdEvent& event) {
  std::vector<std::byte> out;
  serialize_event(event, out);
  return out;
}

Result<std::pair<StdEvent, std::size_t>> deserialize_event(std::span<const std::byte> in) {
  StdEvent event;
  auto consumed = deserialize_event(in, event);
  if (!consumed) return consumed.status();
  return std::make_pair(std::move(event), consumed.value());
}

Result<std::size_t> deserialize_event(std::span<const std::byte> in, StdEvent& out) {
  g_deserialize_calls.fetch_add(1, std::memory_order_relaxed);
  return deserialize_event_impl(in, out);
}

namespace {

Result<std::size_t> deserialize_event_impl(std::span<const std::byte> in,
                                           StdEvent& event) {
  std::size_t offset = 0;
  std::uint64_t id = 0;
  if (!get_u64(in, offset, id))
    return Status(ErrorCode::kCorrupt, "event: truncated id");
  event.id = id;
  if (in.size() - offset < 2) return Status(ErrorCode::kCorrupt, "event: truncated header");
  const auto kind_raw = static_cast<std::uint8_t>(in[offset++]);
  if (kind_raw > static_cast<std::uint8_t>(EventKind::kMovedTo))
    return Status(ErrorCode::kCorrupt, "event: bad kind");
  event.kind = static_cast<EventKind>(kind_raw);
  event.is_dir = in[offset++] != std::byte{0};
  if (!get_u64(in, offset, event.cookie))
    return Status(ErrorCode::kCorrupt, "event: truncated cookie");
  std::uint64_t ts = 0;
  if (!get_u64(in, offset, ts)) return Status(ErrorCode::kCorrupt, "event: truncated time");
  event.timestamp = common::TimePoint{common::Duration{static_cast<std::int64_t>(ts)}};
  if (!get_string(in, offset, event.watch_root) || !get_string(in, offset, event.path) ||
      !get_string(in, offset, event.source))
    return Status(ErrorCode::kCorrupt, "event: truncated strings");
  return offset;
}

}  // namespace

// Fixed layout facts the batch fast path relies on: within one encoded
// event, the id is bytes [0, 8) and the timestamp bytes [18, 26)
// (id u64 | kind u8 | is_dir u8 | cookie u64 | timestamp u64 | strings).
namespace {
constexpr std::size_t kEventIdOffset = 0;
constexpr std::size_t kEventCookieOffset = 10;
constexpr std::size_t kEventTimestampOffset = 18;
constexpr std::size_t kEventStringsOffset = 26;
constexpr std::size_t kEventMinBytes = 26 + 3 * 8;  // header + three empty strings
constexpr std::size_t kBatchHeaderBytes = 8;        // magic + count
constexpr std::size_t kBatchTrailerBytes = 4;       // crc
}  // namespace

void encode_batch(const EventBatch& batch, std::vector<std::byte>& out) {
  // Size the whole frame up front and write through one raw pointer: the
  // transport path encodes into a fresh buffer per frame, and growing it
  // incrementally (per-event resize + length-prefix patching) used to
  // cost more than the byte writes themselves.
  const std::size_t start = out.size();
  std::size_t total = kBatchHeaderBytes + kBatchTrailerBytes;
  for (const StdEvent& event : batch.events) total += 4 + encoded_event_size(event);
  out.resize(start + total);
  std::byte* p = out.data() + start;
  p = raw_u32(p, kBatchMagic);
  p = raw_u32(p, static_cast<std::uint32_t>(batch.events.size()));
  g_serialize_calls.fetch_add(batch.events.size(), std::memory_order_relaxed);
  for (const StdEvent& event : batch.events) {
    p = raw_u32(p, static_cast<std::uint32_t>(encoded_event_size(event)));
    p = raw_event(p, event);
  }
  const std::uint32_t crc =
      common::crc32(std::span(out.data() + start, total - kBatchTrailerBytes));
  raw_u32(p, crc);
}

std::vector<std::byte> encode_batch(const EventBatch& batch) {
  std::vector<std::byte> out;
  encode_batch(batch, out);
  return out;
}

Result<EventBatchView> view_batch(std::span<const std::byte> frame, bool verify_crc) {
  if (frame.size() < kBatchHeaderBytes + kBatchTrailerBytes)
    return Status(ErrorCode::kCorrupt, "batch: truncated header");
  if (get_u32_at(frame, 0) != kBatchMagic)
    return Status(ErrorCode::kCorrupt, "batch: bad magic");
  EventBatchView view;
  view.count = get_u32_at(frame, 4);
  if (view.count > (1u << 24)) return Status(ErrorCode::kCorrupt, "batch: absurd count");
  std::size_t offset = kBatchHeaderBytes;
  view.events.reserve(view.count);
  for (std::uint32_t i = 0; i < view.count; ++i) {
    if (frame.size() - offset < 4 + kBatchTrailerBytes)
      return Status(ErrorCode::kCorrupt, "batch: truncated event length");
    const std::uint32_t len = get_u32_at(frame, offset);
    offset += 4;
    if (len < kEventMinBytes || frame.size() - offset < len + kBatchTrailerBytes)
      return Status(ErrorCode::kCorrupt, "batch: truncated event body");
    view.events.emplace_back(offset, len);
    offset += len;
  }
  if (frame.size() != offset + kBatchTrailerBytes)
    return Status(ErrorCode::kCorrupt, "batch: trailing garbage");
  if (verify_crc) {
    const std::uint32_t expected = get_u32_at(frame, offset);
    const std::uint32_t actual = common::crc32(frame.subspan(0, offset));
    if (expected != actual) return Status(ErrorCode::kCorrupt, "batch: CRC mismatch");
  }
  return view;
}

Result<EventBatch> decode_batch(std::span<const std::byte> in) {
  auto view = view_batch(in);
  if (!view) return view.status();
  EventBatch batch;
  batch.events.reserve(view.value().count);
  g_deserialize_calls.fetch_add(view.value().count, std::memory_order_relaxed);
  for (const auto& [offset, len] : view.value().events) {
    auto consumed =
        deserialize_event_impl(in.subspan(offset, len), batch.events.emplace_back());
    if (!consumed) return consumed.status();
    if (consumed.value() != len)
      return Status(ErrorCode::kCorrupt, "batch: embedded event length mismatch");
  }
  return batch;
}

Result<std::size_t> patch_batch_ids(std::span<std::byte> frame, common::EventId first_id) {
  auto view = view_batch(frame, /*verify_crc=*/false);
  if (!view) return view.status();
  common::EventId id = first_id;
  for (const auto& [offset, len] : view.value().events) {
    (void)len;
    write_u64_at(frame, offset + kEventIdOffset, id++);
  }
  const std::size_t body = frame.size() - kBatchTrailerBytes;
  write_u32_at(frame, body, common::crc32(std::span<const std::byte>(frame.data(), body)));
  return static_cast<std::size_t>(view.value().count);
}

Result<common::TimePoint> peek_event_timestamp(std::span<const std::byte> event_bytes) {
  if (event_bytes.size() < kEventTimestampOffset + 8)
    return Status(ErrorCode::kCorrupt, "event: too short for timestamp");
  std::uint64_t ts = 0;
  std::size_t offset = kEventTimestampOffset;
  get_u64(event_bytes, offset, ts);
  return common::TimePoint{common::Duration{static_cast<std::int64_t>(ts)}};
}

Result<std::uint64_t> peek_event_cookie(std::span<const std::byte> event_bytes) {
  if (event_bytes.size() < kEventCookieOffset + 8)
    return Status(ErrorCode::kCorrupt, "event: too short for cookie");
  std::uint64_t cookie = 0;
  std::size_t offset = kEventCookieOffset;
  get_u64(event_bytes, offset, cookie);
  return cookie;
}

Result<std::string_view> peek_event_source(std::span<const std::byte> event_bytes) {
  // Skip the fixed header, then watch_root and path (u64 length prefixes).
  std::size_t offset = kEventStringsOffset;
  for (int i = 0; i < 2; ++i) {
    std::uint64_t len = 0;
    if (!get_u64(event_bytes, offset, len) || len > (1ull << 30) ||
        event_bytes.size() - offset < len)
      return Status(ErrorCode::kCorrupt, "event: truncated strings");
    offset += len;
  }
  std::uint64_t len = 0;
  if (!get_u64(event_bytes, offset, len) || len > (1ull << 30) ||
      event_bytes.size() - offset < len)
    return Status(ErrorCode::kCorrupt, "event: truncated source");
  return std::string_view(reinterpret_cast<const char*>(event_bytes.data() + offset),
                          len);
}

Result<EventKind> peek_event_kind(std::span<const std::byte> event_bytes) {
  if (event_bytes.size() < kEventMinBytes)
    return Status(ErrorCode::kCorrupt, "event: too short for kind");
  const auto raw = static_cast<std::uint8_t>(event_bytes[8]);
  if (raw > static_cast<std::uint8_t>(EventKind::kMovedTo))
    return Status(ErrorCode::kCorrupt, "event: bad kind");
  return static_cast<EventKind>(raw);
}

Result<bool> peek_event_is_dir(std::span<const std::byte> event_bytes) {
  if (event_bytes.size() < kEventMinBytes)
    return Status(ErrorCode::kCorrupt, "event: too short for is_dir");
  return event_bytes[9] != std::byte{0};
}

std::vector<std::byte> rebuild_batch(
    std::span<const std::byte> frame,
    const std::vector<std::pair<std::size_t, std::size_t>>& kept) {
  std::vector<std::byte> out;
  std::size_t total = kBatchHeaderBytes + kBatchTrailerBytes;
  for (const auto& [offset, len] : kept) total += 4 + len;
  out.reserve(total);
  put_u32(out, kBatchMagic);
  put_u32(out, static_cast<std::uint32_t>(kept.size()));
  for (const auto& [offset, len] : kept) {
    put_u32(out, static_cast<std::uint32_t>(len));
    const std::byte* src = frame.data() + offset;
    out.insert(out.end(), src, src + len);
  }
  put_u32(out, common::crc32(std::span<const std::byte>(out.data(), out.size())));
  return out;
}

}  // namespace fsmon::core
