#include "src/nsindex/index_consumer.hpp"

#include "src/common/logging.hpp"

namespace fsmon::nsindex {

using common::Result;
using common::Status;
using scalable::VectorCursor;

Result<std::size_t> fold_namespace(scalable::ShardedAggregator& aggregator,
                                   NamespaceIndex& index, std::size_t page) {
  if (page == 0) page = 4096;
  const std::size_t shard_count = aggregator.shard_count();
  VectorCursor cursor(shard_count);
  std::size_t folded = 0;
  for (;;) {
    auto events = aggregator.events_since(cursor, page);
    if (!events) return events.status();
    if (events.value().empty()) break;
    for (const core::StdEvent& event : events.value()) {
      const std::size_t shard =
          shard_count == 1 ? 0 : aggregator.map().shard_of(event.source);
      // The merged view preserves per-shard id order, so a from-scratch
      // fold never sees a gap or a duplicate.
      if (index.apply(shard, event) == NamespaceIndex::ApplyResult::kApplied)
        ++folded;
    }
    if (events.value().size() < page) break;
  }
  return folded;
}

IndexConsumer::IndexConsumer(scalable::FanOutHub& hub, scalable::ShardedAggregator& aggregator,
                             std::string name, IndexConsumerOptions options)
    : hub_(hub),
      aggregator_(aggregator),
      name_(std::move(name)),
      options_(std::move(options)),
      index_([&] {
        NamespaceIndexOptions idx = options_.index;
        idx.metrics = options_.metrics;
        return idx;
      }()),
      snapshots_(SnapshotStoreOptions{options_.snapshot_dir, options_.snapshot_keep,
                                      options_.metrics}) {
  if (options_.metrics != nullptr) {
    replayed_counter_ = &options_.metrics->counter(
        "nsidx.replayed_events", {}, "events re-folded from the store during recovery");
  }
}

IndexConsumer::~IndexConsumer() { stop(); }

Status IndexConsumer::start() {
  if (running_.load()) return Status::ok();

  // 1. Load the newest valid snapshot (torn files are discarded and the
  //    previous one wins — SnapshotStore::recover).
  auto recovered = snapshots_.recover(index_);
  if (!recovered) return recovered.status();
  last_checkpoint_seq_.store(index_.applied_seq());
  const VectorCursor snapshot_cursor = index_.applied_cursor();

  refused_.assign(aggregator_.shard_count(), false);

  // 2. Attach the manual-ack consumer. The ack floor starts at the
  //    snapshot cursor: everything below it is durably folded.
  scalable::ConsumerOptions copts;
  copts.manual_acks = true;
  copts.ack_interval = options_.ack_interval;
  copts.replay_page = options_.replay_page;
  copts.metrics = options_.metrics;
  copts.hub = &hub_;
  consumer_ = std::make_unique<scalable::Consumer>(
      aggregator_, name_, std::move(copts),
      scalable::Consumer::BatchCallback(
          [this](const core::EventBatch& batch) { on_batch(batch); }));
  consumer_->acknowledge_processed(snapshot_cursor);

  // 3. O(delta) catch-up: replay only events above the snapshot cursor.
  //    Runs before delivery starts (same ordering as Consumer::restart:
  //    the replay raises the id floor over the live items it covers).
  //    nsidx.replayed_events counts exactly this delta.
  replayed_events_.store(0);
  recovering_.store(true);
  auto replayed = consumer_->replay_historic(snapshot_cursor, /*rewind=*/true);
  recovering_.store(false);
  if (!replayed) {
    consumer_.reset();
    return replayed.status();
  }

  // 4. Go live.
  if (Status s = consumer_->start(); !s.is_ok()) {
    consumer_.reset();
    return s;
  }
  running_.store(true);
  return Status::ok();
}

void IndexConsumer::stop() {
  if (!running_.exchange(false)) {
    consumer_.reset();
    return;
  }
  if (consumer_ != nullptr) consumer_->stop();
  consumer_.reset();
}

void IndexConsumer::on_batch(const core::EventBatch& batch) {
  using ApplyResult = NamespaceIndex::ApplyResult;
  const std::size_t shard_count = aggregator_.shard_count();
  for (const core::StdEvent& event : batch.events) {
    const std::size_t shard =
        shard_count == 1 ? 0 : aggregator_.map().shard_of(event.source);
    const ApplyResult result = index_.apply(shard, event);
    if (result == ApplyResult::kApplied && recovering_.load()) {
      replayed_events_.fetch_add(1);
      if (replayed_counter_ != nullptr) replayed_counter_->inc();
    } else if (result == ApplyResult::kOutOfOrder && !refused_[shard]) {
      refused_[shard] = true;
      FSMON_ERROR("nsindex", name_, ": shard ", shard, " delivered id ", event.id,
                  " after ", index_.applied_cursor().at(shard),
                  "; its index stops here until a restart replays from the snapshot");
    }
  }
  if (options_.snapshot_every > 0 &&
      index_.applied_seq() - last_checkpoint_seq_.load() >= options_.snapshot_every) {
    if (Status s = checkpoint(); !s.is_ok())
      FSMON_WARN("nsindex", "checkpoint failed (will retry): ", s.to_string());
  }
}

Status IndexConsumer::checkpoint() {
  std::lock_guard lock(checkpoint_mu_);
  // Capture the cursor before serializing: events applied while the
  // snapshot is written make the persisted image newer than this cursor,
  // so acknowledging up to it stays conservative.
  const VectorCursor cursor = index_.applied_cursor();
  const std::uint64_t seq = index_.applied_seq();
  if (Status s = snapshots_.write(index_); !s.is_ok()) return s;
  last_checkpoint_seq_.store(seq);
  if (consumer_ != nullptr) consumer_->acknowledge_processed(cursor);
  return Status::ok();
}

}  // namespace fsmon::nsindex
