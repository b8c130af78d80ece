// Aggregator service: runs on the MGS (paper Section IV "Aggregation").
//
// Subscribes to every collector's sender (fan-in), assigns global event
// ids, and runs two worker threads as the paper describes: "one thread
// is responsible for publishing the aggregated file system events to the
// subscribed consumers, and the other thread stores the events into a
// local database to enable fault tolerance." The database is the
// reliable event store; consumers replay from it via events_since().
//
// Both stage boundaries ride the transport::Transport interface: frames
// arrive on a Receiver and fan out through a Sender as immutable
// ref-counted FrameRefs, so the aggregator never copies the encoded
// batch — id patching happens in place and the persister shares the
// pumped bytes. By default the aggregator owns an InProcTransport over
// the bus it was given (byte-for-byte the historic topology); injecting
// AggregatorOptions::transport rebases the same pipeline onto
// shared-memory rings or TCP without the stage noticing.
//
// Durable before visible: the pump thread dedups and assigns ids, the
// persist thread commits and only then fans out. It coalesces whatever
// batches are already queued (bounded by wal_group_commit_bytes,
// optionally waiting wal_group_commit_us for stragglers), commits the
// whole group with one store append and one flush, then sends the
// group's frames in queue order and releases its acks. Every id a
// consumer sees is therefore in the store and keeps naming the same
// record across a restart; a torn commit's durable prefix is delivered
// by the fan-out hub's gap fill, never renumbered. A send the hub's
// carrier refuses is not retried: the hub sees the id gap at the
// shard's next frame and fills it from the store. A storeless
// aggregator has no persist thread and sends from the pump.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/common/clock.hpp"
#include "src/common/rate_meter.hpp"
#include "src/core/event.hpp"
#include "src/eventstore/store.hpp"
#include "src/msgq/pubsub.hpp"
#include "src/obs/metrics.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::scalable {

struct AggregatorOptions {
  std::size_t inbox_high_water_mark = 1 << 16;
  std::size_t persist_queue_capacity = 1 << 16;
  /// Topic the aggregator publishes resolved events under.
  std::string output_topic = "fsmon/events";
  /// Transport the input/output endpoints are created on. Null (default)
  /// makes the aggregator own an InProcTransport over its bus — the
  /// historic in-process topology. The pointer must outlive the
  /// aggregator.
  transport::Transport* transport = nullptr;
  /// Reliable store configuration; nullopt disables fault tolerance.
  std::optional<eventstore::EventStoreOptions> store;
  /// Group-commit byte budget: the persist thread keeps coalescing
  /// already-queued batches into one commit group until the group holds
  /// this many frame bytes. 0 commits each batch individually (the
  /// pre-group-commit behaviour; the shard-scaling bench uses it so its
  /// modeled per-batch commit latency stays per batch).
  std::size_t wal_group_commit_bytes = 1 << 20;
  /// Group-commit time budget: how long the persist thread waits for
  /// further batches once it holds at least one and the byte budget is
  /// not yet full. 0 (default) only coalesces what is already queued —
  /// no added latency, deterministic for drains.
  common::Duration wal_group_commit_us{};
  /// Period of the automatic purge cycle removing acknowledged events
  /// ("events ... can be removed from the data store when next data
  /// purge cycle is initiated", Section IV). Zero disables the cycle;
  /// purge() can always be called manually.
  common::Duration purge_interval{};
  /// Observability registry; null = uninstrumented. Registers
  /// aggregator.* and (when a store is configured) wal.* / store.*.
  obs::MetricsRegistry* metrics = nullptr;
  /// Extra labels on every metric this aggregator (and its store)
  /// registers. A sharded deployment sets {{"shard", "<k>"}} so the N
  /// instances get distinct instruments instead of fighting over one.
  obs::Labels labels;
  /// Chaos fault-point scope, e.g. "aggregator.shard2.". When set, the
  /// publish/persist paths consult the scoped points
  /// (<scope>before_publish / <scope>before_persist) *in addition to*
  /// the generic aggregator.* points, so a fault plan can target one
  /// shard while fleet-wide plans keep working.
  std::string fault_scope;
  /// Modeled durable-commit latency per commit group (the paper's
  /// aggregator commits each batch to MySQL; this stands in for that
  /// round trip). Slept for real in the persist thread, once per group.
  /// Zero (default) for production paths; the shard scaling bench sets
  /// it (with group commit off) so the per-shard persist threads have
  /// genuine latency to overlap.
  common::Duration commit_latency{};
};

class Aggregator {
 public:
  /// Durable-custody acknowledgement: every event of `source` whose
  /// changelog record index is <= `record_index` is persisted (or, with
  /// no store configured, fanned out). The scalable monitor routes these
  /// back to the owning collector, which clears the changelog up to the
  /// acked index. Invoked from the persist thread (or the pump thread
  /// when storeless / on duplicate drops).
  using AckCallback = std::function<void(std::string_view source,
                                         std::uint64_t record_index)>;
  /// Negative acknowledgement: a frame from `source` started above
  /// `watermark + 1` and was refused (a gap means frames were lost in
  /// flight — dropped by a faulted or reconnecting transport). The
  /// refusal alone is invisible to the sender, whose transport-level
  /// send already succeeded; without a back-channel the gap wedges the
  /// pipeline forever (every later frame is also above the hole). The
  /// monitor routes nacks to the owning collector, which rewinds to the
  /// cleared index and re-publishes the unacked suffix. Invoked from
  /// the pump thread.
  using NackCallback = std::function<void(std::string_view source,
                                          std::uint64_t watermark)>;

  Aggregator(msgq::Bus& bus, std::string name, AggregatorOptions options,
             common::Clock& clock);
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Must be set before start() / drain_once(); not thread-safe.
  void set_ack_callback(AckCallback callback) { ack_callback_ = std::move(callback); }
  /// Must be set before start() / drain_once(); not thread-safe.
  void set_nack_callback(NackCallback callback) { nack_callback_ = std::move(callback); }

  common::Status start();
  void stop();

  /// Fail-stop as a crash harness would: worker threads exit immediately,
  /// buffered frames (inbox + persist queue) are lost exactly as a real
  /// process crash would lose them. Unpersisted events were never acked,
  /// so collectors re-publish them after restart().
  void crash();
  /// Restart after crash(): reopen the queues empty, recover the event
  /// store from disk (WAL torn-tail scan included), resume id assignment
  /// after the last durable id, rebuild the per-source dedup watermarks
  /// from the recovered events, and start the worker threads.
  common::Status restart();
  bool crashed() const { return crashed_.load(); }

  /// Synchronously pump whatever is buffered (deterministic tests; only
  /// valid while the worker threads are not running). Returns frames
  /// processed. Persists as groups of one so chaos schedules stay
  /// per-batch deterministic.
  std::size_t drain_once();

  /// Transport this aggregator's endpoints live on.
  transport::Transport& transport() { return *transport_; }
  /// Fan-in receiver — the shard router's senders connect here.
  const std::shared_ptr<transport::Receiver>& input() const { return input_; }
  /// Connect a downstream receiver (the fan-out hub) to the output.
  void connect_output(const std::shared_ptr<transport::Receiver>& receiver) {
    output_->connect(receiver);
    if (fanout_receivers_gauge_ != nullptr)
      fanout_receivers_gauge_->set(
          static_cast<std::int64_t>(output_->receiver_count()));
  }

  /// Historic replay from the reliable store (consumer fault recovery),
  /// decoded straight from the store's payload views. Safe against a
  /// concurrent restart().
  common::Result<std::vector<core::StdEvent>> events_since(
      common::EventId after_id, std::size_t max_events = SIZE_MAX) const;

  /// The fan-out hub forwards the consumers' lowest acknowledged id;
  /// acknowledged events are removed at the next purge cycle. Every id
  /// the hub has seen is durable, so an ack never outruns the store.
  void acknowledge(common::EventId up_to_id);
  std::size_t purge();

  /// Last id assigned (it may not be durable yet).
  common::EventId last_event_id() const { return next_id_.load() - 1; }
  /// Last id whose commit group is appended and flushed: everything up
  /// to it may be fanned out. 0 without a store.
  common::EventId durable_id() const { return durable_id_.load(); }
  std::uint64_t aggregated() const { return aggregated_.load(); }
  std::uint64_t persisted() const { return persisted_.load(); }
  std::uint64_t purge_cycles() const { return purge_cycles_.load(); }
  /// Replayed events dropped by the per-source (MDT, record-index) dedup.
  std::uint64_t deduped() const { return deduped_.load(); }
  /// Commit groups flushed by the persist thread.
  std::uint64_t commit_groups() const { return commit_groups_.load(); }
  double publish_rate() const { return meter_.average_rate(); }
  const eventstore::EventStore* store() const { return store_.get(); }

 private:
  /// An id-patched, already-encoded batch frame handed from the pump to
  /// the persister, which stores it and then fans the same bytes out —
  /// the persist path never re-serializes and never duplicates.
  /// `source`/`last_seq` carry the durability ack the persister owes the
  /// originating collector; an empty frame is an ack-only marker.
  struct PersistBatch {
    common::EventId first_id = 0;
    std::string source;
    std::uint64_t last_seq = 0;
    transport::FrameRef frame;
  };

  void pump_loop(std::stop_token stop);
  void persist_loop(std::stop_token stop);
  void purge_loop(std::stop_token stop);
  /// One pump iteration: dedup replays, assign ids, enqueue for
  /// persistence (or fan out, when storeless). Returns false if the
  /// frame was dropped (corrupt or fully duplicate) or the stage crashed.
  bool process_frame(transport::Frame& message);
  /// Commit one group: per-batch before_persist faults, one torn-group
  /// fault evaluation, one store append + flush for the whole group,
  /// then fan-out and acks in queue order. Returns false when the stage
  /// crashed (no batch of the group was sent or acked unless its prefix
  /// committed first).
  bool persist_group(std::span<PersistBatch> group);
  /// Send one frame to the output and record its fan-out lag.
  void publish(const transport::FrameRef& frame);
  void ack(std::string_view source, std::uint64_t record_index);
  void rebuild_accepted_from_store();

  msgq::Bus& bus_;
  std::string name_;
  AggregatorOptions options_;
  common::Clock& clock_;
  /// Owned fallback when options_.transport is null. Declared before the
  /// endpoints it creates.
  std::unique_ptr<transport::Transport> owned_transport_;
  transport::Transport* transport_ = nullptr;
  std::shared_ptr<transport::Receiver> input_;
  std::shared_ptr<transport::Sender> output_;
  /// Held exclusively while restart() replaces store_, shared by the
  /// readers that may run meanwhile (replay, acks, purge).
  mutable std::shared_mutex store_mu_;
  std::unique_ptr<eventstore::EventStore> store_;
  common::BoundedQueue<PersistBatch> persist_queue_;
  common::RateMeter meter_;
  std::jthread pump_thread_;
  std::jthread persist_thread_;
  std::jthread purge_thread_;
  std::atomic<common::EventId> next_id_{1};
  std::atomic<common::EventId> durable_id_{0};
  std::atomic<std::uint64_t> aggregated_{0};
  std::atomic<std::uint64_t> persisted_{0};
  std::atomic<std::uint64_t> purge_cycles_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> commit_groups_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> crashed_{false};
  AckCallback ack_callback_;
  NackCallback nack_callback_;
  /// Per-source highest accepted changelog record index. Replayed events
  /// at or below their source's watermark are duplicates of already-
  /// accepted (persisted) events and are trimmed before id assignment.
  /// Touched only by the pump thread (or drain_once when stopped).
  std::map<std::string, std::uint64_t, std::less<>> accepted_seq_;
  obs::Counter* deduped_counter_ = nullptr;
  obs::Counter* gapped_counter_ = nullptr;
  obs::Counter* aggregated_counter_ = nullptr;
  obs::Counter* persisted_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* queue_depth_peak_gauge_ = nullptr;
  obs::Gauge* publish_rate_gauge_ = nullptr;
  obs::Gauge* fanout_receivers_gauge_ = nullptr;
  obs::HistogramMetric* fanout_lag_hist_ = nullptr;
  obs::HistogramMetric* batch_size_hist_ = nullptr;
  obs::HistogramMetric* batch_bytes_hist_ = nullptr;
  obs::HistogramMetric* group_size_hist_ = nullptr;
  obs::HistogramMetric* group_commit_latency_hist_ = nullptr;
};

}  // namespace fsmon::scalable
