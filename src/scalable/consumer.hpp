// Consumer service (paper Section IV "Consumption").
//
// Rides the aggregator tier's FanOutHub: the hub matches every frame
// against this consumer's rules once, in its shared subscription index,
// and its delivery workers hand the matching events to the application
// callback. (The paper filters at each consumer "in order to alleviate
// potential overheads if a large number of consumers were to ask to
// monitor different files and directories"; the shared index keeps that
// cost bounded by matched events instead, see DESIGN.md.) After a
// failure, a consumer resumes by replaying historic events from the
// shards' reliable stores starting at its last acknowledged vector
// cursor — one watermark per shard, since each shard assigns its own
// dense id sequence. Replay is the merged, timestamp-ordered view served
// by ShardedAggregator::events_since.
//
// Exactly-once rests on those ids: a shard fans out only records it has
// committed, so an id names the same record before and after any crash,
// and the hub delivers each shard's ids in order without gaps. The
// per-shard seen cursor is therefore the whole dedup state: an event at
// or below it (a replay overlapping live delivery, a restart) was
// delivered already and is dropped.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/filter.hpp"
#include "src/scalable/flow_control.hpp"
#include "src/scalable/sharded_aggregator.hpp"

namespace fsmon::scalable {

struct ConsumerOptions {
  /// Ignored. A consumer that falls behind is demoted to store replay by
  /// the hub's credit window (FlowControlOptions), never dropped at a
  /// high-water mark. Kept so existing callers still compile.
  std::size_t high_water_mark = 1 << 16;
  /// Ignored, like high_water_mark.
  common::OverflowPolicy overflow_policy = common::OverflowPolicy::kBlock;
  /// Paths/rules this consumer cares about; empty = everything.
  std::vector<core::FilterRule> rules;
  /// Acknowledge to the aggregator every N delivered events (counted
  /// across all shards).
  std::size_t ack_interval = 1024;
  /// Events fetched per merged page during replay_historic. Bounds the
  /// replay's peak memory to one page regardless of how far this
  /// consumer lags; the stores stream each page from disk.
  std::size_t replay_page = 4096;
  /// Observability registry; null = uninstrumented. Registers consumer.*
  /// and filter.* labelled consumer=<name>.
  obs::MetricsRegistry* metrics = nullptr;
  /// Fan-out hub this consumer rides (ScalableMonitor::make_consumer
  /// fills it in). The consumer's compiled rules join the hub's shared
  /// index, the hub's delivery workers run the callback, and the hub's
  /// credit window demotes this consumer to store replay if it stops
  /// draining. Null makes a replay-only consumer: replay_historic works,
  /// start() fails, and it never acknowledges. Must outlive the consumer.
  FanOutHub* hub = nullptr;
  /// Manual acknowledgement: the consumer never advances the store ack
  /// cursor past what the application has declared durable via
  /// acknowledge_processed(). A stateful applier (the namespace index)
  /// needs this — an automatic ack after delivery would let the stores
  /// purge events the applier has folded but not yet checkpointed, and a
  /// crash before the checkpoint could then never replay them. Hub
  /// credits are still replenished at the ack cadence so flow control
  /// keeps working; only durability stays with the caller.
  bool manual_acks = false;
};

class Consumer {
 public:
  using EventCallback = std::function<void(const core::StdEvent&)>;
  using BatchCallback = std::function<void(const core::EventBatch&)>;

  Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
           EventCallback callback);
  /// Batch-aware variant: the callback is invoked once per received
  /// batch with only the events that pass this consumer's filter. The
  /// per-event constructor is a shim over the same batched path.
  Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
           BatchCallback callback);
  /// The batch-aware constructor under its older signature; the bus is
  /// unused.
  Consumer(msgq::Bus& bus, ShardedAggregator& aggregator, std::string name,
           ConsumerOptions options, BatchCallback callback);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Start/stop delivery: start() attaches a handler to the hub's
  /// delivery workers; stop() detaches it, waiting for a turn in flight,
  /// and stops a running catch-up. The callback is never invoked
  /// concurrently and sees each stream in order. start() fails on a
  /// replay-only consumer (no hub).
  common::Status start();
  void stop();

  /// Fail-stop this consumer: delivery stops and nothing further is
  /// acked. Items already queued stay in the hub; restart() skips what
  /// its replay covered.
  void crash();
  /// Restart after crash(): replay from the last acknowledged cursor so
  /// nothing delivered-and-acked repeats and nothing unacked is lost,
  /// then resume delivery. Live items the replay covered are dropped by
  /// the per-shard id floor.
  common::Status restart();

  /// Replay events since `after_id` (or since the last acknowledged
  /// cursor when nullopt) from the reliable stores, through the same
  /// filter and callback. The scalar is applied to every shard's slot —
  /// exact historic semantics with one shard; with several it is chiefly
  /// useful as 0 (full rewind). Runs on the caller's thread; delivery is
  /// serialized with live delivery, so the callback is never
  /// invoked concurrently (but replayed and live batches may
  /// interleave). Passing an explicit `after_id` is an intentional
  /// rewind: the replayed range bypasses the id floor and is delivered
  /// again. Returns the number of events delivered.
  common::Result<std::size_t> replay_historic(
      std::optional<common::EventId> after_id = std::nullopt);
  /// Vector-cursor variant: replay everything after `cursor`. `rewind`
  /// gives the explicit-after_id semantics above (floor bypassed).
  common::Result<std::size_t> replay_historic(VectorCursor cursor, bool rewind);

  bool matches(const core::StdEvent& event) const;

  /// Manual-ack mode (ConsumerOptions::manual_acks): publish the cursor
  /// the application has made durable. The consumer acknowledges up to
  /// it (clamped to the seen watermark, never regressing) at its normal
  /// ack cadence, and restart() resumes replay from it. Safe to call
  /// from inside the delivery callback. No-op when manual_acks is off.
  void acknowledge_processed(const VectorCursor& cursor);

  std::uint64_t delivered() const { return delivered_.load(); }
  std::uint64_t filtered_out() const { return filtered_.load(); }
  /// Duplicate events dropped by the per-shard id floor.
  std::uint64_t duplicates_suppressed() const { return duplicates_.load(); }
  /// Sum of the per-shard seen watermarks — total distinct events this
  /// consumer has observed; equal to the plain last id with one shard.
  common::EventId last_seen_id() const { return last_seen_sum_.load(); }
  /// Snapshot of the per-shard seen cursor.
  VectorCursor seen_cursor() const;
  const std::string& name() const { return name_; }
  /// Flow-control state of this consumer's hub subscription (kLive for
  /// a replay-only consumer).
  FlowState flow_state() const;
  /// True once the hub evicted this consumer for never draining its
  /// backlog.
  bool evicted() const { return evicted_.load(); }

 private:
  Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
           EventCallback callback, BatchCallback batch_callback);

  /// Hub handler, run on a hub delivery worker: delivers batch items,
  /// and on a kDemoted marker parks the subscription while catch_up
  /// runs on its own thread (which resumes it when done).
  FanOutHub::Turn on_hub_item(const HubItem& item);
  /// Deliver one hub batch item: the index already matched the events,
  /// so delivery skips local filtering. Matched events at or below the
  /// shard's seen watermark (a replay/live seam, a restart) are dropped;
  /// then the watermark advances to the frame's last id, matched or not,
  /// so acks keep progressing for consumers whose rules match sparsely.
  /// Hands the frame itself to the callback when every event matched
  /// and none was dropped.
  void deliver_hub_item(const HubItem& item);
  /// Demoted catch-up: page the merged store replay through this
  /// consumer's own rules until within promotion range, promote, then
  /// finish replaying to the promotion watermark (gap-free seam).
  void catch_up(std::stop_token stop);
  void replay_to_watermark(const VectorCursor& target, std::stop_token stop);
  /// Deliver one page of a store replay, filtered by this consumer's
  /// rules, under deliver_mu_ so the callback sees at most one thread at
  /// a time even when replay_historic runs concurrently with live
  /// delivery. With `dedup` false (an intentional rewind) the page
  /// bypasses the id floor.
  void deliver_batch(const core::EventBatch& batch, bool dedup = true);
  /// All delivery (live and replay) funnels through here; caller holds
  /// deliver_mu_. Drops events at or below their shard's seen watermark
  /// when `dedup`, advances the watermark, filters by the rules unless
  /// `already_filtered` (the shared index matched them), and makes one
  /// callback invocation per batch (or the per-event shim) and one ack
  /// check. The batch callback gets `batch` itself when every event
  /// survives, else one copy of the survivors.
  void deliver_locked(const core::EventBatch& batch, bool dedup, bool already_filtered);
  /// Ack-interval check; caller holds deliver_mu_. Sends the cursor to
  /// the hub (min-ack + credit replenish); a replay-only consumer never
  /// acks.
  void maybe_ack_locked();

  ShardedAggregator& aggregator_;
  std::string name_;
  ConsumerOptions options_;
  EventCallback callback_;
  BatchCallback batch_callback_;
  mutable std::mutex deliver_mu_;  ///< Serializes live and replay deliveries.
  /// Thread currently inside deliver_batch (holding deliver_mu_ across
  /// the application callback), or a default id. Lets
  /// acknowledge_processed() detect reentry from the callback — a
  /// try_lock on a std::mutex the calling thread already owns is UB.
  std::atomic<std::thread::id> deliver_owner_{};
  /// Per-shard last seen ids: the dedup floor. Guarded by deliver_mu_.
  VectorCursor seen_;
  VectorCursor acked_;  ///< Per-shard last acked ids. Guarded by deliver_mu_.
  /// Manual-ack mode: the durable cursor published by the application.
  /// Own mutex so acknowledge_processed() can be called from inside the
  /// delivery callback (which already holds deliver_mu_).
  mutable std::mutex ack_floor_mu_;
  VectorCursor ack_floor_;
  bool ack_floor_dirty_ = false;  ///< Guarded by ack_floor_mu_.
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> filtered_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> last_seen_sum_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> evicted_{false};
  core::FilterMetrics filter_metrics_;  ///< Zeroed when uninstrumented.
  /// Rules compiled once at subscription: pre-normalized roots, kind
  /// masks, counters bound (no per-event labelled-metric lookups).
  core::CompiledRuleSet compiled_;
  /// Hub subscription handle (null for a replay-only consumer).
  std::shared_ptr<FanOutHub::Subscription> hub_sub_;
  /// Hub-delivered events processed since the last ack — replenishes the
  /// credit window at ack time. Guarded by deliver_mu_.
  std::uint64_t hub_processed_since_ack_ = 0;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  obs::Gauge* delivery_lag_gauge_ = nullptr;
  obs::HistogramMetric* batch_size_hist_ = nullptr;
  /// The demoted catch-up, started by on_hub_item. Touched only
  /// inside a delivery turn or after detach(), so never concurrently.
  std::jthread catch_up_;
};

}  // namespace fsmon::scalable
