// FanOutHub: subscription-indexed fan-out with credit-based
// per-consumer flow control — the only path from the aggregator tier to
// live consumers.
//
// One receiver sits on every shard output: a single pump thread decodes
// each frame once, runs the shared SubscriptionIndex once per batch, and
// pushes {shared decoded batch, matched indices} items into per-consumer
// queues. Matching cost grows with matched events, not subscriber count,
// and no consumer's back-pressure reaches a shard's sender.
//
// Shards fan out only committed records, and each shard's ids are dense,
// so the hub keeps a per-shard head and delivers every id exactly once,
// in order. A frame that starts above head + 1 means the shard's sends
// in between were refused (or its durable tail was never sent before a
// crash): the pump first delivers the missing ids from the shard's
// store (fill_gap, counted as flow.gap_filled_events), then the frame.
// Ids at or below the head were already delivered and are dropped.
//
// Delivery runs on a small pool of workers owned by the hub, not on a
// thread per subscriber. A queue that gains an item puts its
// subscription on the pool's run queue (once: a subscription is either
// idle, queued, running on one worker, or parked); a worker runs the
// subscription's handler on a bounded turn of items in queue order and
// then releases it or queues it again. One worker at a time per
// subscription keeps each consumer's callback serial and in order. A
// handler may park its subscription (the consumer's store catch-up runs
// on its own thread meanwhile) and resume() it later. If every worker
// has been inside one turn for longer than a fixed threshold while work
// waits — callbacks that block — the pool starts one more worker; a
// surplus worker exits once it finds the run queue empty.
//
// Flow control is credit-based: each subscription carries a credit
// window counted in delivered events; credits are consumed when a batch
// is queued (a frame may drive the window one batch negative so frames
// stay atomic) and replenished when the consumer acknowledges processed
// events. A consumer that exhausts its window is demoted: live delivery
// stops (a marker item tells the consumer), and the consumer catches up
// by paging the reliable store (the for_each_since/replay_page path)
// through its own rules. When it reaches the live watermark it asks to
// be promoted; promotion hands it a fresh window and the watermark to
// replay up to, so the hand-off is gap-free and duplicate-free. A
// demoted consumer whose lag keeps growing past `eviction_lag` is
// evicted — it stops holding the store's retention window hostage.
//
// Acknowledgement forwarding: the hub forwards the element-wise MINIMUM
// acked cursor across all non-evicted subscriptions to the shard stores,
// so a purge can never drop an event a demoted consumer still needs for
// catch-up: the fastest consumer's watermark never races ahead of the
// slowest's replay needs. The minimum never exceeds the hub's heads,
// which are durable, so a forwarded ack never outruns a store.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/scalable/sharded_aggregator.hpp"
#include "src/scalable/sub_index.hpp"

namespace fsmon::scalable {

/// Delivery state of one hub subscription.
enum class FlowState : std::uint8_t {
  kLive,     ///< Receiving live matched batches, credits remaining.
  kDemoted,  ///< Window exhausted; catching up from the store.
  kEvicted,  ///< Never drained; removed from the index and the min-ack.
};

std::string_view to_string(FlowState state);

/// One entry in a subscription's queue. kBatch carries the shared
/// decoded frame plus the indices of this subscriber's matched events;
/// kDemoted / kEvicted are state-change markers enqueued in stream
/// position, so the consumer learns exactly where live delivery stopped.
struct HubItem {
  enum class Kind : std::uint8_t { kBatch, kDemoted, kEvicted };
  Kind kind = Kind::kBatch;
  std::shared_ptr<const core::EventBatch> batch;
  std::vector<std::uint32_t> indices;  ///< Matched event indices, batch order.
  std::size_t shard = 0;
};

struct FlowControlOptions {
  /// Credit window per subscription, in delivered events. Must exceed
  /// the consumer's ack interval or a healthy consumer would demote
  /// itself between acks.
  std::uint64_t credit_window = 1 << 15;
  /// A demoted consumer may be promoted once its replay cursor is within
  /// this many events of the live watermark. 0 = credit_window / 4.
  std::uint64_t promote_lag = 0;
  /// Evict a demoted subscription whose acknowledged cursor lags the
  /// live watermark by more than this many events. 0 disables eviction.
  std::uint64_t eviction_lag = 0;
  /// Pump inbox high-water mark (frames).
  std::size_t high_water_mark = 1 << 16;
  /// Observability registry; null = uninstrumented. Registers flow.* and
  /// subidx.*.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Instruments for the flow-control tier (flow.*). All optional.
struct FlowMetrics {
  obs::Counter* demotions = nullptr;
  obs::Counter* promotions = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Gauge* live = nullptr;
  obs::Gauge* demoted = nullptr;
  obs::Gauge* delivery_workers = nullptr;
  obs::Counter* delivery_handoffs = nullptr;
  obs::Counter* gap_filled = nullptr;

  static FlowMetrics create(obs::MetricsRegistry& registry,
                            const obs::Labels& labels = {});
};

class FanOutHub {
 public:
  /// What a delivery handler tells its worker after one item.
  enum class Turn : std::uint8_t {
    kContinue,  ///< Go on with the subscription's next item.
    kPark,      ///< Stop delivering until resume(); stays owned meanwhile.
  };
  /// Runs on a delivery worker, never concurrently for one subscription,
  /// on the subscription's items in queue order.
  using Handler = std::function<Turn(const HubItem&)>;

  /// Opaque per-consumer handle. All state is owned and mutated by the
  /// hub; consumers interact through the hub methods below.
  class Subscription : public std::enable_shared_from_this<Subscription> {
   private:
    friend class FanOutHub;
    /// Where the subscription stands with the delivery pool.
    enum class Delivery : std::uint8_t { kIdle, kQueued, kRunning, kParked };
    std::string name_;
    SubscriberId id_ = 0;
    FlowState state_ = FlowState::kLive;
    std::int64_t credits_ = 0;
    VectorCursor acked_;        ///< Last cursor the consumer acknowledged.
    std::mutex queue_mu_;
    std::condition_variable turn_done_;  ///< detach() waits out a turn.
    std::deque<HubItem> queue_;
    bool queue_closed_ = false;
    Handler handler_;         ///< Written only while no turn can run.
    bool attached_ = false;
    bool catch_up_queued_ = false;  ///< A kDemoted marker is in queue_.
    /// resume() arrived while the turn that parks was still running.
    bool resume_pending_ = false;
    Delivery delivery_ = Delivery::kIdle;
  };

  FanOutHub(ShardedAggregator& aggregator, FlowControlOptions options);
  ~FanOutHub();

  FanOutHub(const FanOutHub&) = delete;
  FanOutHub& operator=(const FanOutHub&) = delete;

  common::Status start();
  void stop();

  /// Register a consumer with its compiled rules (empty = everything).
  /// The subscription starts live with a full credit window, positioned
  /// at the current live watermark.
  std::shared_ptr<Subscription> subscribe(
      std::string name, std::span<const core::CompiledRule> rules);

  /// Remove a subscription: detaches it from the index, closes its queue
  /// and releases its hold on the min-ack watermark.
  void unsubscribe(Subscription& sub);

  /// Start delivering this subscription's queue (items already queued
  /// first) to `handler` on the delivery workers. Call only while
  /// detached. A subscription still demoted with no kDemoted marker
  /// queued (its catch-up was stopped before promotion) gets a fresh
  /// marker, so the handler catches up again.
  void attach(Subscription& sub, Handler handler);
  /// Stop delivering: waits for a turn in flight and releases a parked
  /// subscription. Queued items stay for the next attach().
  void detach(Subscription& sub);
  /// Release a subscription its handler parked: delivery continues with
  /// the next queued item. May be called from the moment the handler
  /// decides to park, before it returns kPark; then the worker does not
  /// park the subscription at all. No-op when idle or queued.
  void resume(Subscription& sub);

  /// Consumer progress report: `cursor` is the consumer's per-shard seen
  /// watermark (forwarded to the stores as the min across subscriptions),
  /// `processed_events` the number of hub-delivered events the consumer
  /// has finished with since its last call (replenishes credits).
  void acknowledge(Subscription& sub, const VectorCursor& cursor,
                   std::uint64_t processed_events);

  /// Ask to re-enter live delivery after catch-up. `cursor` is where the
  /// consumer's replay has reached. Succeeds when the cursor is within
  /// promote_lag of the live watermark: the subscription re-enters kLive
  /// with a fresh window and the call returns the watermark snapshot the
  /// consumer must finish replaying up to — every frame the hub matched
  /// before the promotion has last_id <= that snapshot, every frame after
  /// it is queued live, so replaying exactly to the snapshot is gap-free
  /// and duplicate-free.
  std::optional<VectorCursor> try_promote(Subscription& sub,
                                          const VectorCursor& cursor);

  FlowState state(const Subscription& sub) const;
  std::int64_t credits(const Subscription& sub) const;
  /// Live watermark: last id the hub has seen per shard.
  VectorCursor head_cursor() const;

  /// Deliver shard `shard`'s durable records above its head from the
  /// shard's store. The pump does this itself when a frame opens a gap;
  /// ScalableMonitor calls it after restarting a shard, whose durable
  /// tail (a torn group's prefix) no later frame may follow.
  void fill_gap(std::size_t shard);

  SubscriptionIndex& index() { return index_; }
  std::uint64_t frames_pumped() const { return frames_.load(); }
  /// Delivery workers running now: the pool size, plus any started
  /// because every worker was stuck in a callback.
  std::size_t delivery_workers() const;
  /// Size of the standing pool: max(2, hardware threads).
  std::size_t pool_size() const { return pool_size_; }

 private:
  using SubscriptionList = std::vector<std::shared_ptr<Subscription>>;
  /// One delivery worker. Its fields other than `thread` are guarded by
  /// pool_mu_.
  struct Worker {
    std::thread thread;
    bool in_turn = false;
    std::chrono::steady_clock::time_point turn_start;
    bool exited = false;
  };

  void pump(std::stop_token stop);
  /// Deliver (head, up_to] of `shard` from its store; caller holds
  /// fill_mu_.
  void fill_locked(std::size_t shard, common::EventId up_to);
  /// Match one batch of `shard`'s records, all above its head, and queue
  /// it; caller holds fill_mu_.
  void deliver_locked(std::size_t shard, std::shared_ptr<const core::EventBatch> batch);
  common::EventId head_of(std::size_t shard) const;
  /// Queue an item; appends `sub` to `ready` when it must be scheduled.
  void push_item(const std::shared_ptr<Subscription>& sub, HubItem item,
                 SubscriptionList& ready);
  void demote_locked(const std::shared_ptr<Subscription>& sub, SubscriptionList& ready);
  void evict_overdue_locked(SubscriptionList& ready);
  /// Put subscriptions on the run queue and wake idle workers for them.
  void schedule(SubscriptionList& ready);
  void start_worker_locked();
  void worker_loop(Worker& self);
  /// Run one turn of `sub`; true when it must go back on the run queue.
  bool run_turn(Subscription& sub);
  /// Watches for turns that never end and starts extra workers.
  void handoff_monitor();
  /// Forward the min acked cursor across non-evicted subs to the stores.
  void forward_acks_locked();
  std::size_t shard_of_topic(std::string_view topic) const;
  void update_gauges_locked();

  ShardedAggregator& aggregator_;
  FlowControlOptions options_;
  SubscriptionIndex index_;
  FlowMetrics metrics_;
  std::shared_ptr<transport::Receiver> receiver_;
  std::jthread pump_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> frames_{0};

  /// Serializes delivery: the pump's frames and fill_gap() calls. Guards
  /// the scratch below. Taken before mu_.
  std::mutex fill_mu_;
  DeliverySet delivery_;
  std::vector<SubscriberId> touched_;
  SubscriptionList ready_;

  mutable std::mutex mu_;
  /// Subscriptions indexed by SubscriberId (dense, reused).
  std::vector<std::shared_ptr<Subscription>> subs_;
  std::vector<SubscriberId> demoted_;  ///< Ids to check for eviction.
  VectorCursor heads_;                 ///< Per-shard last pumped id.
  VectorCursor forwarded_;             ///< Last min cursor sent to stores.
  std::size_t live_count_ = 0;
  std::size_t demoted_count_ = 0;
  /// The frame the pump is currently matching but has not yet committed
  /// to heads_ (all guarded by mu_). subscribe() counts it as historic:
  /// a subscription added mid-match may miss the index evaluation, so
  /// its start watermark must sit at or above the frame or those events
  /// would be neither delivered nor replayed.
  std::size_t pending_shard_ = 0;
  common::EventId pending_last_id_ = 0;
  bool pending_valid_ = false;
  /// Frames since the pump last forwarded the min-ack (guarded by mu_);
  /// keeps retention moving when no consumer is acking.
  std::size_t frames_since_forward_ = 0;

  // Delivery pool. Lock order: mu_, then a subscription's queue_mu_,
  // then pool_mu_.
  const std::size_t pool_size_;
  mutable std::mutex pool_mu_;
  std::condition_variable work_cv_;     ///< Idle workers wait here.
  std::condition_variable monitor_cv_;  ///< The handoff monitor waits here.
  std::deque<std::shared_ptr<Subscription>> run_queue_;
  std::list<Worker> workers_;    ///< Stable addresses; exited ones reaped.
  std::size_t live_workers_ = 0;
  std::size_t idle_workers_ = 0;   ///< Waiting on work_cv_.
  std::size_t wakes_pending_ = 0;  ///< Notified, not yet awake.
  bool monitor_armed_ = false;
  bool pool_stopping_ = false;
  std::thread monitor_thread_;
};

}  // namespace fsmon::scalable
