// IndexConsumer: the indexing consumer — glue between the consumption
// tier and the NamespaceIndex applier.
//
// It owns a manual-ack Consumer riding the fan-out hub, folds every
// delivered batch into the index in per-shard id order, checkpoints the
// index every `snapshot_every` applied events, and only then lets the
// consumer acknowledge — so the stores never purge events the index has
// folded but not yet persisted (acked implies recoverable).
//
// Recovery (start()) is O(delta): load the newest valid snapshot, then
// replay only events above the snapshot's embedded VectorCursor through
// the paged merged-store path. Events replayed during recovery are
// counted as `nsidx.replayed_events` — the regression tests pin that
// this equals the post-snapshot delta, not the full history.
//
// The consumer delivers each shard's events once, in dense id order:
// shards fan out only committed records, the hub fills any id gap from
// the store, and the consumer's id floor drops the overlap between the
// start-up replay and live delivery. The applier still refuses an
// out-of-order id; such a refusal is logged once per shard, and that
// shard's index stops advancing until a restart replays from the
// snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/nsindex/nsindex.hpp"
#include "src/nsindex/snapshot.hpp"
#include "src/scalable/consumer.hpp"

namespace fsmon::nsindex {

struct IndexConsumerOptions {
  /// Snapshot directory (created on demand).
  std::filesystem::path snapshot_dir;
  /// Checkpoint after this many newly applied events (0 = only explicit
  /// checkpoint() calls).
  std::size_t snapshot_every = 8192;
  /// Snapshots retained (min 2; see SnapshotStoreOptions::keep).
  std::size_t snapshot_keep = 2;
  /// Applier tuning (undo window, chain cap). The metrics field is
  /// overridden by `metrics` below.
  NamespaceIndexOptions index;
  /// Registry for nsidx.* and the consumer's consumer.* instruments.
  obs::MetricsRegistry* metrics = nullptr;
  /// Underlying consumer cadence/paging.
  std::size_t ack_interval = 1024;
  std::size_t replay_page = 4096;
};

/// Reference fold: replay the stores' full merged history into `index`
/// from scratch — no consumer, no snapshot, no live seam. The property
/// tests byte-compare a crash-recovered index against exactly this.
/// Returns the number of events folded.
common::Result<std::size_t> fold_namespace(scalable::ShardedAggregator& aggregator,
                                           NamespaceIndex& index,
                                           std::size_t page = 4096);

class IndexConsumer {
 public:
  /// `hub` must sit on `aggregator`'s output (ScalableMonitor::hub()).
  IndexConsumer(scalable::FanOutHub& hub, scalable::ShardedAggregator& aggregator,
                std::string name, IndexConsumerOptions options);
  ~IndexConsumer();

  IndexConsumer(const IndexConsumer&) = delete;
  IndexConsumer& operator=(const IndexConsumer&) = delete;

  /// Recover (snapshot + delta replay) and begin consuming live.
  common::Status start();
  void stop();

  /// Snapshot the index now and advance the consumer's durable ack floor
  /// to the snapshot's cursor. Non-OK (e.g. an injected torn write)
  /// leaves the ack floor alone: the stores retain the un-checkpointed
  /// delta and the next recovery replays it.
  common::Status checkpoint();

  /// The queryable state. Thread-safe (the index locks internally).
  NamespaceIndex& index() { return index_; }
  const NamespaceIndex& index() const { return index_; }
  SnapshotStore& snapshots() { return snapshots_; }

  /// Events folded during the last start()'s recovery replay (the value
  /// behind nsidx.replayed_events for that run).
  std::uint64_t replayed_events() const { return replayed_events_.load(); }
  /// applied_seq at the last successful checkpoint.
  std::uint64_t last_checkpoint_seq() const { return last_checkpoint_seq_.load(); }

  const std::string& name() const { return name_; }

 private:
  void on_batch(const core::EventBatch& batch);

  scalable::FanOutHub& hub_;
  scalable::ShardedAggregator& aggregator_;
  std::string name_;
  IndexConsumerOptions options_;
  NamespaceIndex index_;
  SnapshotStore snapshots_;
  std::unique_ptr<scalable::Consumer> consumer_;
  /// Shards whose out-of-order refusal was logged. Only touched on the
  /// (serialized) delivery path.
  std::vector<bool> refused_;
  std::atomic<bool> recovering_{false};
  std::atomic<std::uint64_t> replayed_events_{0};
  std::atomic<std::uint64_t> last_checkpoint_seq_{0};
  std::mutex checkpoint_mu_;  ///< Serializes checkpoint() callers.
  std::atomic<bool> running_{false};
  obs::Counter* replayed_counter_ = nullptr;
};

}  // namespace fsmon::nsindex
