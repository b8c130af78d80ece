// NamespaceIndex: materialized, point-in-time-queryable namespace state
// folded from the event stream (ROADMAP item 3).
//
// The store can replay history but cannot answer questions — "what is at
// /a/b now", "what does /proj contain", "which directories are hot",
// "what was this file called before". This applier consumes the ordered
// per-shard event streams (live batches via the consumer/hub path, or
// merged store replay) and maintains:
//
//   - path -> node attributes: kind, synthetic node id, create/last
//     event ids, last event kind, last timestamp (the mtime the events
//     carry), per-node event count;
//   - per-directory state: child listings (served from the ordered path
//     map, so a directory's children are the key range under its
//     prefix) and activity counters (events whose subject lives
//     directly in the directory);
//   - rename-chain resolution: MOVED_FROM / MOVED_TO halves are paired
//     on StdEvent::rename_key(), a directory rename rekeys the whole
//     subtree, and every relocated node records the hop — a query for a
//     current path reflects its full RENME history;
//   - an as-of read: a bounded undo log of node-record changes lets
//     lookup_as_of() answer "what was at this path as of apply step S"
//     for any S inside the retained window.
//
// Ordering contract: apply() accepts exactly the next dense event id of
// each shard (ids per shard are 1,2,3,...). Duplicates (id at or below
// the applied cursor) and out-of-order ids are refused with a typed
// result, which makes the applier safe to drive from the consumer's
// replay/live seam — the IndexConsumer stashes out-of-order events and
// re-offers them when the gap closes. Folding the same per-shard
// sequences always produces the same state; with one shard the fold is
// byte-deterministic (serialize() compares equal), which is the
// crash-recovery property the tests byte-check.
//
// Thread safety: every public method takes the internal mutex; apply
// runs in the consumer's delivery callback while queries come from
// application threads.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/types.hpp"
#include "src/core/event.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/shard_map.hpp"

namespace fsmon::nsindex {

struct NamespaceIndexOptions {
  /// Bounded undo log: as-of reads reach back at most this many applied
  /// events. 0 disables as-of reads entirely.
  std::size_t undo_capacity = 1 << 16;
  /// Rename hops retained per node; older hops are dropped (the chain
  /// reports truncation).
  std::size_t chain_cap = 16;
  /// MOVED_FROM halves parked awaiting their MOVED_TO. A half whose
  /// partner never arrives (filtered out, dropped upstream) would
  /// otherwise sit forever — and be serialized into every snapshot — so
  /// beyond the cap the oldest half (by apply step) is evicted, counted
  /// as nsidx.pending_rename_evictions; its MOVED_TO, if it ever shows
  /// up, folds as an orphan create. 0 = unbounded.
  std::size_t pending_rename_cap = 1024;
  /// Observability registry; null = uninstrumented (nsidx.* instruments).
  obs::MetricsRegistry* metrics = nullptr;
};

/// One hop of a node's rename history: the node (or an ancestor moved
/// above it) was known as `old_path` until apply step `seq`.
struct RenameHop {
  std::uint64_t seq = 0;            ///< Apply step of the MOVED_TO.
  common::EventId event_id = 0;     ///< Shard-local id of the MOVED_TO event.
  std::string old_path;             ///< Full path before this hop.

  friend bool operator==(const RenameHop&, const RenameHop&) = default;
};

/// Query result: the state of one node.
struct NodeView {
  std::string path;
  std::uint64_t node_id = 0;  ///< Synthetic identity, stable across renames.
  bool is_dir = false;
  /// Materialized as an inferred ancestor (no create event was observed
  /// for it — monitoring started after it existed).
  bool implicit = false;
  common::EventId create_event = 0;  ///< 0 when implicit.
  common::EventId last_event = 0;
  core::EventKind last_kind = core::EventKind::kCreate;
  common::TimePoint last_time{};
  std::uint64_t events = 0;  ///< Events that targeted this node.
  bool chain_truncated = false;
  std::vector<RenameHop> chain;  ///< Oldest hop first.
};

struct DirEntry {
  std::string name;
  bool is_dir = false;
  std::uint64_t node_id = 0;
};

struct DirActivity {
  std::string path;
  std::uint64_t events = 0;
};

/// resolve_rename_chain() result: a node's identity plus its full name
/// history (oldest first; `truncated` when hops were dropped by the cap).
struct RenameChain {
  std::uint64_t node_id = 0;
  std::string current_path;
  bool truncated = false;
  std::vector<RenameHop> hops;
};

class NamespaceIndex {
 public:
  explicit NamespaceIndex(NamespaceIndexOptions options = {});

  NamespaceIndex(const NamespaceIndex&) = delete;
  NamespaceIndex& operator=(const NamespaceIndex&) = delete;

  enum class ApplyResult {
    kApplied,     ///< Event folded; cursor advanced.
    kDuplicate,   ///< id at or below the shard's applied watermark.
    kOutOfOrder,  ///< id leaves a gap; re-offer once the gap closes.
  };

  /// Fold one event from `shard`'s stream. Ids per shard must be dense;
  /// only id == cursor[shard] + 1 is accepted.
  ApplyResult apply(std::size_t shard, const core::StdEvent& event);

  // ---- Queries --------------------------------------------------------

  /// Current state of the node at `path` (normalized); nullopt when no
  /// such node exists.
  std::optional<NodeView> lookup(std::string_view path) const;

  /// Point-in-time read: the node state at `path` as of apply step
  /// `as_of_seq` (a value of applied_seq(); with one shard this is the
  /// event id). kOutOfRange when the step is older than the retained
  /// undo window or predates the restored snapshot.
  common::Result<std::optional<NodeView>> lookup_as_of(std::string_view path,
                                                       std::uint64_t as_of_seq) const;

  /// Children of the directory at `path`, sorted by name. kNotFound for
  /// an unknown path, kNotADirectory for a file; "/" always succeeds.
  common::Result<std::vector<DirEntry>> list_dir(std::string_view path) const;

  /// The `n` directories with the most activity (events on direct
  /// children), most active first; ties broken by path.
  std::vector<DirActivity> activity_topk(std::size_t n) const;

  /// Rename history of the node currently at `path`.
  common::Result<RenameChain> resolve_rename_chain(std::string_view path) const;
  /// Rename history by node identity (survives renames; the index's
  /// stand-in for a FID).
  common::Result<RenameChain> resolve_rename_chain(std::uint64_t node_id) const;

  // ---- Progress -------------------------------------------------------

  /// Apply steps folded so far (monotonic; the as-of timeline).
  std::uint64_t applied_seq() const;
  /// Per-shard applied watermarks — the snapshot/replay cursor.
  scalable::VectorCursor applied_cursor() const;
  /// Oldest apply step as-of reads can still answer.
  std::uint64_t as_of_floor() const;
  std::size_t node_count() const;
  std::size_t dir_count() const;

  // ---- Checkpointing --------------------------------------------------

  /// Serialize the full state (cursor, nodes, chains, activity, pending
  /// rename halves) into `out`. Framing/CRC/fsync are the snapshot
  /// layer's job (snapshot.hpp). The encoding is canonical: two indexes
  /// that folded the same per-shard sequences serialize identically.
  void serialize(std::vector<std::byte>& out) const;

  /// Replace the state with a serialized image. The undo log resets (as
  /// -of reads reach back only to the restored step). kCorrupt on a
  /// malformed image; the index is left empty in that case.
  common::Status restore(std::span<const std::byte> in);

  /// Deterministic human-readable dump of the whole state (tests diff
  /// this across recovery schedules).
  std::string debug_dump() const;

 private:
  struct Node {
    std::uint64_t node_id = 0;
    bool is_dir = false;
    bool implicit = false;
    common::EventId create_event = 0;
    common::EventId last_event = 0;
    core::EventKind last_kind = core::EventKind::kCreate;
    common::TimePoint last_time{};
    std::uint64_t events = 0;
    bool chain_truncated = false;
    std::vector<RenameHop> chain;
  };

  struct PendingRename {
    std::string from_path;  ///< Empty when the source path was unresolvable.
    bool is_dir = false;
    common::EventId event_id = 0;
    /// Apply step at insertion — the oldest-first eviction order
    /// (deterministic given the applied stream, so eviction keeps the
    /// serialized image canonical).
    std::uint64_t admitted = 0;
  };

  struct UndoEntry {
    std::uint64_t seq = 0;
    std::string path;
    std::optional<Node> prior;  ///< nullopt = the path had no node.
  };

  // All helpers run under mu_.
  void apply_locked(const core::StdEvent& event);
  void do_create(const core::StdEvent& event);
  void do_touch(const core::StdEvent& event);
  void do_delete(const core::StdEvent& event);
  void do_moved_from(const core::StdEvent& event);
  void do_moved_to(const core::StdEvent& event);
  /// Move the node at `from` (and, for directories, its whole subtree)
  /// to `to`, recording a rename hop on every relocated node.
  void move_tree_locked(const std::string& from, const std::string& to,
                        const core::StdEvent& event);
  /// Remove the node at `path` and, for directories, every descendant.
  void remove_tree_locked(const std::string& path);
  /// Materialize missing ancestor directories of `path` as implicit dirs.
  void ensure_ancestors_locked(const std::string& path);
  void bump_activity_locked(const std::string& dir);
  /// Record-change primitives; every node-map mutation goes through
  /// these so the undo log sees it.
  void put_node_locked(const std::string& path, Node node);
  void erase_node_locked(const std::string& path);
  void log_undo_locked(const std::string& path);
  void append_hop_locked(Node& node, const std::string& old_path,
                        const core::StdEvent& event);
  /// First key lexicographically after every path under `dir` ("/a" ->
  /// "/a0": '0' is '/'+1, so the subtree key range is ["/a/", "/a0")).
  static std::string subtree_end_key(const std::string& dir);
  NodeView view_locked(const std::string& path, const Node& node) const;
  void update_gauges_locked();

  NamespaceIndexOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Node, std::less<>> nodes_;
  std::unordered_map<std::uint64_t, std::string> path_by_id_;
  std::map<std::string, std::uint64_t, std::less<>> dir_activity_;
  std::map<std::pair<std::string, std::uint64_t>, PendingRename> pending_renames_;
  scalable::VectorCursor cursor_;
  std::uint64_t applied_seq_ = 0;
  std::uint64_t next_node_id_ = 1;
  std::size_t dir_nodes_ = 0;  ///< Directory nodes in nodes_ (gauge).
  std::deque<UndoEntry> undo_;
  /// Oldest apply step still answerable: raised by undo eviction and by
  /// restore() (a snapshot carries no undo history).
  std::uint64_t as_of_floor_ = 0;

  obs::Counter* applied_counter_ = nullptr;
  obs::Counter* duplicates_counter_ = nullptr;
  obs::Counter* renames_counter_ = nullptr;
  obs::Counter* subtree_moves_counter_ = nullptr;
  obs::Counter* orphan_renames_counter_ = nullptr;
  obs::Counter* pending_evictions_counter_ = nullptr;
  obs::Counter* unresolved_counter_ = nullptr;
  obs::Counter* queries_counter_ = nullptr;
  obs::Gauge* nodes_gauge_ = nullptr;
  obs::Gauge* dirs_gauge_ = nullptr;
  obs::Gauge* undo_gauge_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
};

}  // namespace fsmon::nsindex
