// FrameRef: an immutable, ref-counted handle to one encoded batch frame.
//
// Every hop of the pipeline (collector -> router -> shard aggregator ->
// consumers / persist queue) moves the same already-encoded
// CRC-trailed frame bytes. Before the transport layer existed each hop
// copied the frame into the next stage's inbox; a FrameRef makes the
// handoff a shared_ptr bump instead, and the process-wide frame_copies()
// counter proves it: the counter increments only when a frame's payload
// bytes are actually duplicated onto the heap (FrameRef::copy, or a
// copy-on-write detach of a shared buffer), never on a handoff, a ring
// write, or a socket write — those are transmissions, not copies.
//
// Ownership model:
//   - adopt()  takes an existing buffer by move (no copy, not counted).
//   - copy()   duplicates bytes (counted) — the explicit slow path.
//   - borrow() wraps memory owned elsewhere (a shm ring record); the
//     release hook runs when the last FrameRef drops, returning the
//     region to its owner. Consumers therefore read ring frames in
//     place and the ring reclaims the record only after every retainer
//     (fan-out, persist queue) is done with it.
//
// mutable_bytes() supports the aggregator's in-place id patch: when the
// ref is the sole owner the underlying buffer is handed out directly
// (borrowed ring records included — the SPSC consumer owns the record
// exclusively until release); when shared, the payload is detached into
// a fresh buffer first, which counts as one frame copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fsmon::transport {

/// Process-wide count of frame payload duplications (relaxed atomic).
/// Tests take deltas across a pipeline run to assert zero-copy hops.
std::uint64_t frame_copies();

class FrameRef {
 public:
  FrameRef() = default;

  /// Take ownership of an existing buffer by move. Not a copy.
  static FrameRef adopt(std::string payload);
  static FrameRef adopt(std::vector<std::byte> payload);

  /// Duplicate `payload` onto the heap. Counted in frame_copies().
  static FrameRef copy(std::span<const std::byte> payload);

  /// Wrap memory owned elsewhere (a shm ring record). `release` runs
  /// exactly once, when the last FrameRef referencing the region drops.
  static FrameRef borrow(std::span<std::byte> region, std::function<void()> release);

  explicit operator bool() const { return data_ != nullptr; }
  bool empty() const { return data_ == nullptr || data_->view.empty(); }
  std::size_t size() const { return data_ == nullptr ? 0 : data_->view.size(); }

  std::span<const std::byte> bytes() const {
    return data_ == nullptr ? std::span<const std::byte>() : std::span<const std::byte>(data_->view);
  }
  std::string_view chars() const {
    const auto b = bytes();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  /// Mutable access for in-place id patching (see file comment). May
  /// detach (one counted copy) when the buffer is shared.
  std::span<std::byte> mutable_bytes();

  /// Owners of the underlying buffer, 0 for a null ref.
  long use_count() const { return data_.use_count(); }

  /// Logical equality: same bytes (topic travels outside the ref).
  friend bool operator==(const FrameRef& a, const FrameRef& b) {
    return a.chars() == b.chars();
  }

 private:
  struct Data {
    /// Owning storage; exactly one is non-empty unless borrowing.
    std::string owned_str;
    std::vector<std::byte> owned_vec;
    /// The frame bytes, pointing into owned storage or a borrowed region.
    std::span<std::byte> view;
    std::function<void()> release;
    ~Data() {
      if (release) release();
    }
  };

  explicit FrameRef(std::shared_ptr<Data> data) : data_(std::move(data)) {}

  std::shared_ptr<Data> data_;
};

namespace detail {
/// Increment frame_copies(); exposed so adapters that must materialize a
/// duplicate (e.g. a copy-mode benchmark) count it at the site.
void count_frame_copy();
}  // namespace detail

/// The wire form of one (topic, frame) message on a TCP connection,
/// all integers little-endian:
///   u32 topic_len | topic | u32 payload_len | payload | u32 crc32
/// The CRC covers every byte before the trailer. The header and the
/// trailer are built apart from the payload so a sender can write all
/// three with one scatter-gather call.
struct WireFrame {
  std::string_view topic;
  std::span<const std::byte> payload;
  std::size_t size = 0;  ///< Bytes the whole frame occupies.
};

/// Largest topic or payload a wire frame may carry.
inline constexpr std::size_t kMaxWireField = std::size_t{1} << 30;

/// `u32 topic_len | topic | u32 payload_len`.
std::vector<std::byte> wire_header(std::string_view topic, std::size_t payload_size);
/// The trailer value: CRC-32 over the header, then the payload.
std::uint32_t wire_crc(std::span<const std::byte> header, std::span<const std::byte> payload);
void put_u32_le(std::byte* out, std::uint32_t value);

/// Parse the frame at the front of `buffer`, viewing into it. Returns
/// nullopt while the frame is incomplete; throws std::runtime_error on a
/// corrupt length or a CRC mismatch.
std::optional<WireFrame> parse_wire_frame(std::span<const std::byte> buffer);

}  // namespace fsmon::transport
