// ShardedAggregator: the hash-partitioned aggregation tier (ROADMAP
// item 1).
//
// N full Aggregators — each with its own inbox, id sequence, WAL/store,
// persist thread and per-source dedup watermarks — behind one
// ShardRouter that assigns every collector frame to exactly one shard
// by event source (see shard_map.hpp). With shards == 1 the tier is
// byte-for-byte the old single aggregator: same bus names, same output
// topic, same store directory, no metric labels, no scoped fault
// points.
//
// Event ids are per-shard: each shard assigns its own dense 1,2,3,...
// sequence for its own store. A consumer's position is therefore a
// VectorCursor (one watermark per shard), and the merged read path
// (events_since) performs a k-way head-comparison merge over per-shard
// pages of raw stored payloads: the event with the smallest (timestamp,
// shard) head is popped next, compared on timestamps peeked from the
// bytes, and only the popped event is decoded. The merge never reorders
// within a shard — each shard's subsequence of the merged stream is
// exactly its replay order — which is the "permutation-free merge"
// contract the property test byte-checks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/scalable/aggregator.hpp"
#include "src/scalable/shard_map.hpp"
#include "src/scalable/shard_router.hpp"

namespace fsmon::scalable {

struct ShardedAggregatorOptions {
  /// Number of aggregator shards; 1 reproduces the unsharded tier.
  std::size_t shards = 1;
  /// Transport every stage boundary of the tier rides on (router->shard
  /// senders, shard inboxes and outputs). Null (default) makes the tier
  /// own an InProcTransport over its bus. Must outlive the tier.
  transport::Transport* transport = nullptr;
  /// Template applied to every shard. Per-shard derivations: the store
  /// directory gains a "shard<k>" suffix, the output topic a "/shard<k>"
  /// suffix, metrics a shard=<k> label, and fault points an
  /// "aggregator.shard<k>." scope (all only when shards > 1).
  AggregatorOptions aggregator;
};

class ShardedAggregator {
 public:
  ShardedAggregator(msgq::Bus& bus, const std::string& name,
                    ShardedAggregatorOptions options, common::Clock& clock);

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  common::Status start();
  void stop();

  std::size_t shard_count() const { return shards_.size(); }
  Aggregator& shard(std::size_t k) { return *shards_.at(k); }
  const Aggregator& shard(std::size_t k) const { return *shards_.at(k); }
  /// Transport the tier's endpoints live on (collector senders are made
  /// here so the whole pipeline shares one carrier).
  transport::Transport& transport() { return *transport_; }
  ShardRouter& router() { return *router_; }
  ShardMap& map() { return map_; }
  const ShardMap& map() const { return map_; }
  /// Topic shard k publishes under (base, or base + "/shard<k>").
  const std::string& output_topic(std::size_t k) const { return topics_.at(k); }

  /// Applied to every shard (not thread-safe; set before start()).
  void set_ack_callback(Aggregator::AckCallback callback);
  /// Applied to every shard (not thread-safe; set before start()).
  void set_nack_callback(Aggregator::NackCallback callback);

  /// Merged historic replay: up to `max_events` across all shards,
  /// k-way merged by (timestamp, shard) with each shard's own order
  /// preserved exactly. `cursor` is advanced past every returned event,
  /// so repeated calls page through the backlog. The cursor is resized
  /// to the shard count if needed (missing slots replay from the start).
  /// Each returned event is decoded exactly once, straight into the
  /// result; no store lock is held while decoding.
  common::Result<std::vector<core::StdEvent>> events_since(
      VectorCursor& cursor, std::size_t max_events = SIZE_MAX) const;

  /// Per-shard acknowledgement of everything at or below the cursor.
  void acknowledge(const VectorCursor& cursor);
  std::size_t purge();

  /// Sum of per-shard head ids: total events assigned ids so far
  /// (delivery-lag arithmetic against VectorCursor::sum()).
  std::uint64_t last_event_id_sum() const;
  /// Per-shard head ids as a cursor (lag and promotion arithmetic for
  /// the fan-out hub's flow control).
  VectorCursor head_cursor() const {
    VectorCursor cursor(shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k)
      cursor.last_ids[k] = shards_[k]->last_event_id();
    return cursor;
  }
  std::uint64_t aggregated() const;
  std::uint64_t persisted() const;
  bool any_crashed() const;

 private:
  ShardMap map_;
  /// Owned fallback when options.transport is null. Declared before the
  /// shards and router whose endpoints it creates.
  std::unique_ptr<transport::Transport> owned_transport_;
  transport::Transport* transport_ = nullptr;
  std::vector<std::unique_ptr<Aggregator>> shards_;
  std::vector<std::string> topics_;
  std::unique_ptr<ShardRouter> router_;
};

}  // namespace fsmon::scalable
