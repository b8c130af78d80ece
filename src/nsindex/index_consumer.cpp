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
    auto& m = *options_.metrics;
    replayed_counter_ = &m.counter("nsidx.replayed_events", {},
                                   "events re-folded from the store during recovery");
    stashed_counter_ = &m.counter("nsidx.stashed_events", {},
                                  "out-of-order events parked at the replay/live seam");
    gap_repairs_counter_ = &m.counter("nsidx.gap_repairs", {},
                                      "store re-pages triggered by a stalled id gap");
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
  //    replay first so the dedup window seeds from the oldest unacked
  //    record). nsidx.replayed_events counts exactly this delta.
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
  applied_at_last_tick_.store(index_.applied_seq());
  repair_ = std::jthread([this](std::stop_token stop) { repair_loop(stop); });
  return Status::ok();
}

void IndexConsumer::stop() {
  if (!running_.exchange(false)) {
    consumer_.reset();
    return;
  }
  if (repair_.joinable()) {
    repair_.request_stop();
    repair_.join();
  }
  if (consumer_ != nullptr) consumer_->stop();
  consumer_.reset();
}

void IndexConsumer::on_batch(const core::EventBatch& batch) {
  const std::size_t shard_count = aggregator_.shard_count();
  for (const core::StdEvent& event : batch.events) {
    const std::size_t shard =
        shard_count == 1 ? 0 : aggregator_.map().shard_of(event.source);
    apply_or_stash(shard, event);
  }
  if (options_.snapshot_every > 0 &&
      index_.applied_seq() - last_checkpoint_seq_.load() >= options_.snapshot_every) {
    if (Status s = checkpoint(); !s.is_ok())
      FSMON_WARN("nsindex", "checkpoint failed (will retry): ", s.to_string());
  }
}

void IndexConsumer::apply_or_stash(std::size_t shard, const core::StdEvent& event) {
  using ApplyResult = NamespaceIndex::ApplyResult;
  const ApplyResult result = index_.apply(shard, event);
  if (result == ApplyResult::kOutOfOrder) {
    // The seam between replayed and live delivery can run ahead of a
    // gap; park the event and re-offer once the gap closes.
    auto& pending = stash_[shard];
    if (pending.emplace(event.id, event).second) {
      stash_size_.fetch_add(1);
      if (stashed_counter_ != nullptr) stashed_counter_->inc();
    }
    return;
  }
  if (result != ApplyResult::kApplied) return;  // duplicate
  if (recovering_.load()) {
    replayed_events_.fetch_add(1);
    if (replayed_counter_ != nullptr) replayed_counter_->inc();
  }
  // The gap (if any) just moved: drain every parked event that is now
  // next in line; stale parked duplicates fall out as kDuplicate.
  auto it = stash_.find(shard);
  if (it == stash_.end()) return;
  auto& pending = it->second;
  while (!pending.empty()) {
    auto first = pending.begin();
    const ApplyResult r = index_.apply(shard, first->second);
    if (r == ApplyResult::kOutOfOrder) break;
    if (r == ApplyResult::kApplied && recovering_.load()) {
      replayed_events_.fetch_add(1);
      if (replayed_counter_ != nullptr) replayed_counter_->inc();
    }
    pending.erase(first);
    stash_size_.fetch_sub(1);
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

void IndexConsumer::repair_loop(std::stop_token stop) {
  while (!stop.stop_requested()) {
    std::this_thread::sleep_for(options_.repair_interval);
    if (stop.stop_requested()) break;
    if (stash_size_.load() == 0) continue;
    // A gap with no progress since the last tick will not close from
    // queued deliveries — the missing events were published before this
    // consumer attached. Re-page the store from the index cursor; the
    // delivery path applies them and the stash drains. replay_historic
    // serializes with live delivery, so this is safe while running.
    const std::uint64_t seq = index_.applied_seq();
    if (seq != applied_at_last_tick_.exchange(seq)) continue;
    if (gap_repairs_counter_ != nullptr) gap_repairs_counter_->inc();
    if (auto r = consumer_->replay_historic(index_.applied_cursor(), /*rewind=*/true);
        !r)
      FSMON_WARN("nsindex", "gap repair replay failed: ", r.status().to_string());
  }
}

}  // namespace fsmon::nsindex
