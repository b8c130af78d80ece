// FSMonitor's standard, file-system-independent event representation.
//
// The paper standardizes all event representations to the inotify format
// "as this is the most widely used in industries" (Section II summary).
// A StdEvent is the normalized record every DSI produces and every layer
// above consumes; dialects.hpp renders it into the inotify, kqueue,
// FSEvents, or FileSystemWatcher representation on demand, and
// serialize/deserialize give the canonical binary form used on the wire
// and in the reliable event store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/types.hpp"

namespace fsmon::core {

/// Normalized event kinds (inotify vocabulary).
enum class EventKind : std::uint8_t {
  kCreate = 0,
  kModify = 1,
  kAttrib = 2,     ///< Permission / attribute / xattr change.
  kClose = 3,      ///< IN_CLOSE (write or nowrite).
  kOpen = 4,
  kDelete = 5,
  kMovedFrom = 6,  ///< Rename: source half.
  kMovedTo = 7,    ///< Rename: destination half.
};

/// Number of EventKind values — the width of a per-kind bitmask.
inline constexpr std::size_t kEventKindCount = 8;

/// "CREATE", "MODIFY", ... (the names FSMonitor prints, Table II).
std::string_view to_string(EventKind kind);
std::optional<EventKind> parse_event_kind(std::string_view text);

/// Path sentinel emitted by Algorithm 1 when both the target and its
/// parent directory are gone before resolution.
inline constexpr std::string_view kParentDirectoryRemoved = "ParentDirectoryRemoved";

/// Path sentinel for a capture-gap marker: the backend's kernel queue
/// overflowed and events were lost at the source (inotify IN_Q_OVERFLOW
/// and kin). The marker's cookie carries the backend's overflow ordinal;
/// consumers needing completeness must rescan the subtree under
/// watch_root. Like kParentDirectoryRemoved, the marker names no real
/// location, so has_path() is false and index layers skip it.
inline constexpr std::string_view kEventQueueOverflow = "EventQueueOverflow";

struct StdEvent {
  common::EventId id = common::kNoEventId;  ///< Assigned by the interface layer.
  EventKind kind = EventKind::kCreate;
  bool is_dir = false;
  std::string watch_root;  ///< Monitored root, e.g. "/mnt/lustre".
  std::string path;        ///< Path relative to watch_root, e.g. "/hello.txt".
  /// For rename pairs: cookie linking MOVED_FROM to its MOVED_TO.
  std::uint64_t cookie = 0;
  common::TimePoint timestamp{};
  std::string source;  ///< Producing DSI, e.g. "inotify" or "lustre:MDT2".

  /// Full path (watch_root + path).
  std::string full_path() const;

  /// Rename-half accessors. A RENME changelog record is surfaced as a
  /// MOVED_FROM / MOVED_TO pair travelling in one batch; the two halves
  /// carry the same source and the same nonzero cookie, and nothing
  /// else links them. Consumers that fold renames (the namespace index)
  /// pair halves on rename_key() instead of re-deriving the convention.
  bool is_rename_from() const { return kind == EventKind::kMovedFrom; }
  bool is_rename_to() const { return kind == EventKind::kMovedTo; }
  bool is_rename_half() const { return is_rename_from() || is_rename_to(); }
  /// (source, cookie) — identifies the RENME record both halves came
  /// from. Only meaningful when is_rename_half().
  std::pair<std::string_view, std::uint64_t> rename_key() const {
    return {source, cookie};
  }

  /// True when `path` names a real location: nonempty and not one of
  /// the sentinels (Algorithm 1's "ParentDirectoryRemoved", the
  /// "EventQueueOverflow" gap marker). Sentinel-carrying events cannot
  /// be attributed to a node.
  bool has_path() const {
    return !path.empty() && path != kParentDirectoryRemoved &&
           path != kEventQueueOverflow;
  }

  /// Parent directory of `path` ("/a/b" -> "/a", "/a" -> "/"); "/" for
  /// sentinel paths. The index layers key per-directory state on this.
  std::string parent_path() const;
  /// Final component of `path` ("/a/b" -> "b"); "" for sentinel paths.
  std::string base_name() const;

  friend bool operator==(const StdEvent&, const StdEvent&) = default;
};

/// The Table II rendering: "<watch_root> <KIND>[,ISDIR] <path>".
std::string to_inotify_line(const StdEvent& event);

/// Canonical binary serialization (little-endian, length-prefixed
/// strings). Stable across platforms; CRC protection is applied by the
/// transport / store framing, not here.
void serialize_event(const StdEvent& event, std::vector<std::byte>& out);
std::vector<std::byte> serialize_event(const StdEvent& event);

/// Deserialize one event from `in`; returns the event and bytes consumed.
common::Result<std::pair<StdEvent, std::size_t>> deserialize_event(
    std::span<const std::byte> in);
/// Deserialize one event from `in` into `out` in place (no temporary
/// event, no move); returns bytes consumed. Replay paths decode straight
/// into the slot of the page they return. On error `out` is unspecified.
common::Result<std::size_t> deserialize_event(std::span<const std::byte> in,
                                              StdEvent& out);

/// Process-wide codec invocation totals (relaxed atomics). Tests use the
/// delta across a pipeline run to prove each event is serialized exactly
/// once end-to-end (the batched path's core invariant).
struct CodecCounters {
  std::uint64_t serialize_calls = 0;
  std::uint64_t deserialize_calls = 0;
};
CodecCounters codec_counters();

/// A batch of events moved as one wire frame through the pipeline
/// (collector -> aggregator -> consumers / store). Batching keeps the
/// per-event cost of framing, queue hops, and fsyncs off the hot path.
struct EventBatch {
  std::vector<StdEvent> events;

  std::size_t size() const { return events.size(); }
  bool empty() const { return events.empty(); }

  friend bool operator==(const EventBatch&, const EventBatch&) = default;
};

/// Batch wire format (little-endian):
///
///   u32 magic "FBT1" | u32 count | count x { u32 len | event bytes } | u32 crc
///
/// The CRC-32 trailer covers every preceding byte. Each embedded event
/// uses the canonical per-event serialization, so the 8-byte event id is
/// the first field of every event record — patch_batch_ids exploits that
/// to renumber an already-encoded batch in place without re-serializing.
inline constexpr std::uint32_t kBatchMagic = 0x31544246;  // "FBT1"

void encode_batch(const EventBatch& batch, std::vector<std::byte>& out);
std::vector<std::byte> encode_batch(const EventBatch& batch);

/// Decode a whole batch frame; kCorrupt on bad magic, truncation, CRC
/// mismatch, or a malformed embedded event. An empty batch is valid.
common::Result<EventBatch> decode_batch(std::span<const std::byte> in);

/// Structural view of an encoded batch frame: the byte range of each
/// embedded event record, without decoding any event. The aggregator's
/// hot path runs on views so it never re-materializes StdEvents.
struct EventBatchView {
  std::uint32_t count = 0;
  /// (offset, length) of each embedded event's bytes within the frame.
  std::vector<std::pair<std::size_t, std::size_t>> events;
};

/// Validate and index a batch frame. With `verify_crc` false only the
/// structure is checked (for buffers whose CRC was already verified).
common::Result<EventBatchView> view_batch(std::span<const std::byte> frame,
                                          bool verify_crc = true);

/// Renumber an encoded batch in place: event i gets id `first_id + i`,
/// and the CRC trailer is recomputed. The frame's CRC must have been
/// verified beforehand (structure is re-checked; payloads are trusted).
/// Returns the number of events patched.
common::Result<std::size_t> patch_batch_ids(std::span<std::byte> frame,
                                            common::EventId first_id);

/// Read the timestamp of a canonically serialized event without decoding
/// it (fixed offset: id u64 + kind u8 + is_dir u8 + cookie u64 precede it).
common::Result<common::TimePoint> peek_event_timestamp(
    std::span<const std::byte> event_bytes);

/// Read the rename/changelog cookie of a serialized event without decoding
/// it (fixed offset 10: id u64 + kind u8 + is_dir u8 precede it). The Lustre
/// processor stores the originating changelog record index here, so
/// (source, cookie) identifies a record across replays — the key the
/// aggregator dedupes on.
common::Result<std::uint64_t> peek_event_cookie(
    std::span<const std::byte> event_bytes);

/// Read the source string ("lustre:MDT0", ...) of a serialized event without
/// materializing a StdEvent. Walks the two length-prefixed strings that
/// precede it; still far cheaper than a full decode.
common::Result<std::string_view> peek_event_source(
    std::span<const std::byte> event_bytes);

/// Read the kind of a serialized event without decoding it (fixed offset
/// 8: the id u64 precedes it). Lets batch scanners separate rename halves
/// from plain events without materializing StdEvents; the kind byte was
/// always encoded but never surfaced.
common::Result<EventKind> peek_event_kind(std::span<const std::byte> event_bytes);

/// Read the is_dir flag of a serialized event (fixed offset 9).
common::Result<bool> peek_event_is_dir(std::span<const std::byte> event_bytes);

/// Re-frame a subset of an already-encoded batch: `kept` lists (offset,
/// length) event byte ranges within `frame` (as produced by view_batch),
/// and the result is a fresh valid batch frame containing exactly those
/// events, bytes copied verbatim. Used by the aggregator to trim replayed
/// duplicates out of a frame without re-serializing the survivors.
std::vector<std::byte> rebuild_batch(
    std::span<const std::byte> frame,
    const std::vector<std::pair<std::size_t, std::size_t>>& kept);

}  // namespace fsmon::core
