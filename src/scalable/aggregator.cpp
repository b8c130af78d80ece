#include "src/scalable/aggregator.hpp"

#include <algorithm>
#include <chrono>

#include "src/chaos/fault.hpp"
#include "src/common/logging.hpp"
#include "src/core/interface.hpp"
#include "src/transport/inproc.hpp"

namespace fsmon::scalable {

using common::Result;
using common::Status;

Aggregator::Aggregator(msgq::Bus& bus, std::string name, AggregatorOptions options,
                       common::Clock& clock)
    : bus_(bus),
      name_(std::move(name)),
      options_(std::move(options)),
      clock_(clock),
      persist_queue_(options_.persist_queue_capacity),
      meter_(clock) {
  if (options_.transport != nullptr) {
    transport_ = options_.transport;
  } else {
    owned_transport_ = std::make_unique<transport::InProcTransport>(bus_);
    transport_ = owned_transport_.get();
  }
  input_ = transport_->make_receiver(name_ + "/inbox", options_.inbox_high_water_mark,
                                     transport::OverflowPolicy::kBlock);
  input_->subscribe("");  // fan-in: accept every collector topic
  output_ = transport_->make_sender(name_ + "/out");
  if (options_.store) {
    eventstore::EventStoreOptions store_options = *options_.store;
    if (store_options.metrics == nullptr) store_options.metrics = options_.metrics;
    if (store_options.labels.empty()) store_options.labels = options_.labels;
    store_ = std::make_unique<eventstore::EventStore>(store_options);
    next_id_.store(store_->last_id() + 1);
    durable_id_.store(store_->last_id());
    rebuild_accepted_from_store();
  }
  if (options_.metrics != nullptr) {
    deduped_counter_ = &options_.metrics->counter(
        "recovery.events_deduped", options_.labels,
        "Replayed duplicate events trimmed by the per-source watermark", "events");
    gapped_counter_ = &options_.metrics->counter(
        "recovery.gapped_frames", options_.labels,
        "Frames refused because they opened a hole above the durable watermark",
        "frames");
  }
  if (options_.metrics != nullptr) {
    auto& registry = *options_.metrics;
    const obs::Labels& labels = options_.labels;
    aggregated_counter_ = &registry.counter(
        "aggregator.events_aggregated", labels,
        "Events received from collectors and assigned global ids", "events");
    persisted_counter_ = &registry.counter("aggregator.events_persisted", labels,
                                           "Events appended to the reliable store", "events");
    queue_depth_gauge_ = &registry.gauge(
        "aggregator.queue_depth", labels,
        "Fan-in inbox plus persist-queue backlog at last pump", "events");
    queue_depth_peak_gauge_ = &registry.gauge("aggregator.queue_depth_peak", labels,
                                              "High-water mark of the fan-in backlog",
                                              "events");
    publish_rate_gauge_ = &registry.gauge("aggregator.publish_rate", labels,
                                          "Lifetime average events/second published",
                                          "events/s");
    fanout_receivers_gauge_ = &registry.gauge(
        "aggregator.fanout_receivers", labels,
        "Receivers connected to this shard's output (the fan-out hub's)",
        "receivers");
    fanout_lag_hist_ = &registry.histogram(
        "aggregator.fanout_lag_us", labels,
        "Operation timestamp to aggregator publish (fan-out lag)", "us");
    batch_size_hist_ = &registry.histogram("aggregator.batch_size", labels,
                                           "Events per batch frame pumped through the "
                                           "aggregator",
                                           "events");
    batch_bytes_hist_ = &registry.histogram("aggregator.batch_bytes", labels,
                                            "Encoded bytes per batch frame pumped "
                                            "through the aggregator",
                                            "bytes");
    group_size_hist_ = &registry.histogram(
        "wal.group_size", labels,
        "Batch frames coalesced into one WAL commit group", "batches");
    group_commit_latency_hist_ = &registry.histogram(
        "wal.group_commit_latency", labels,
        "Wall time to commit one group (append + fsync)", "us");
  }
}

Aggregator::~Aggregator() { stop(); }

Status Aggregator::start() {
  if (running_.load()) return Status::ok();
  // A prior stop() closed the fan-in queues (they were fully drained by
  // the exiting loops); reopen them so stop()/start() cycles resume.
  input_->reopen();
  persist_queue_.reopen();
  running_.store(true);
  pump_thread_ = std::jthread([this](std::stop_token stop) { pump_loop(stop); });
  if (store_ != nullptr) {
    persist_thread_ = std::jthread([this](std::stop_token stop) { persist_loop(stop); });
    if (options_.purge_interval.count() > 0)
      purge_thread_ = std::jthread([this](std::stop_token stop) { purge_loop(stop); });
  }
  return Status::ok();
}

void Aggregator::stop() {
  if (!running_.load()) return;
  input_->close();
  if (pump_thread_.joinable()) {
    pump_thread_.request_stop();
    pump_thread_.join();
  }
  persist_queue_.close();
  if (persist_thread_.joinable()) {
    persist_thread_.request_stop();
    persist_thread_.join();
  }
  if (purge_thread_.joinable()) {
    purge_thread_.request_stop();
    purge_thread_.join();
  }
  running_.store(false);
}

void Aggregator::crash() {
  crashed_.store(true);
  if (!running_.load()) return;
  // Same teardown as stop(), but pump/persist exit on the crashed flag
  // without draining: whatever was buffered is lost, like process memory.
  stop();
}

Status Aggregator::restart() {
  // A self-inflicted fail-stop (injected crash, store append failure)
  // exits the worker loops but leaves running_ set; finish the teardown
  // before recovering.
  if (crashed_.load() && running_.load()) crash();
  if (running_.load()) return Status::ok();
  // The queues stay closed until start() reopens them (empty: a real
  // restart starts with no process memory). Reopening here would open a
  // drop window: a rewound collector could replay into the inbox while
  // store recovery below is still running, and start()'s reopen would
  // discard that frame as stale backlog — a permanently lost replay,
  // since the collector saw it accepted and moved on.
  if (options_.store) {
    // Release the old handle first (it holds the active WAL segment open),
    // then run genuine recovery from disk: segment scan, torn-tail
    // truncation, id resumption. A torn group's durable prefix was never
    // fanned out; the hub's gap fill delivers it under these same ids.
    std::unique_lock lock(store_mu_);
    store_.reset();
    eventstore::EventStoreOptions store_options = *options_.store;
    if (store_options.metrics == nullptr) store_options.metrics = options_.metrics;
    if (store_options.labels.empty()) store_options.labels = options_.labels;
    store_ = std::make_unique<eventstore::EventStore>(store_options);
    next_id_.store(store_->last_id() + 1);
    durable_id_.store(store_->last_id());
  }
  rebuild_accepted_from_store();
  crashed_.store(false);
  return start();
}

std::size_t Aggregator::drain_once() {
  if (running_.load()) return 0;
  std::size_t frames = 0;
  while (auto message = input_->try_recv()) {
    if (process_frame(*message)) ++frames;
    if (crashed_.load(std::memory_order_relaxed)) break;
  }
  // Persist as groups of one: chaos schedules (crash on the Nth persist)
  // stay per-batch deterministic under synchronous draining.
  while (auto batch = persist_queue_.try_pop()) {
    if (!persist_group(std::span(&*batch, 1))) break;
  }
  return frames;
}

void Aggregator::ack(std::string_view source, std::uint64_t record_index) {
  if (ack_callback_ && record_index > 0) ack_callback_(source, record_index);
}

void Aggregator::rebuild_accepted_from_store() {
  accepted_seq_.clear();
  if (store_ == nullptr) return;
  // Peek (source, cookie) out of each durable payload without decoding
  // full events: the watermark map must reflect everything already
  // persisted so replays arriving after a restart are recognized.
  // Streamed via for_each_since — the store may hold far more events
  // than fit in memory, and only the watermark map needs to survive.
  auto status = store_->for_each_since(
      0, SIZE_MAX,
      [&](common::EventId, std::span<const std::byte> payload, bool) {
        auto source = core::peek_event_source(payload);
        auto cookie = core::peek_event_cookie(payload);
        if (!source || !cookie || cookie.value() == 0) return true;
        auto [it, inserted] = accepted_seq_.emplace(source.value(), cookie.value());
        if (!inserted) it->second = std::max(it->second, cookie.value());
        return true;
      });
  if (!status.is_ok())
    FSMON_WARN("aggregator", "accepted-watermark rebuild stopped early: ",
               status.to_string());
}

bool Aggregator::process_frame(transport::Frame& message) {
  // Sole-owner fast path: the collector adopted the buffer, every hop
  // since was a refcount move, so this hands out the original bytes for
  // the in-place id patch. A shared frame (multi-subscriber fan-in)
  // detaches here — one counted copy, never a torn patch.
  auto frame = message.payload.mutable_bytes();
  auto view = core::view_batch(frame);
  if (!view) {
    FSMON_WARN("aggregator", "dropping corrupt batch frame: ",
               view.status().to_string());
    return false;
  }
  if (view.value().count == 0) return false;

  // Replay dedup: a collector that restarted re-publishes every record
  // past its cleared index. Events whose (source, changelog-index) pair
  // is at or below the accepted watermark are already durable — trim
  // them so store delivery stays exactly-once. cookie==0 marks events
  // with no record identity (synthetic producers); never deduped.
  // Materialized (not a view): the frame buffer may be replaced below.
  std::string source;
  if (auto s = core::peek_event_source(frame.subspan(
          view.value().events[0].first, view.value().events[0].second))) {
    source.assign(s.value());
  }
  std::uint64_t watermark = 0;
  bool source_known = false;
  if (!source.empty()) {
    if (auto it = accepted_seq_.find(source); it != accepted_seq_.end()) {
      watermark = it->second;
      source_known = true;
    }
  }
  std::uint64_t frame_max_seq = 0;
  std::uint64_t frame_min_seq = 0;
  std::vector<std::pair<std::size_t, std::size_t>> kept;
  kept.reserve(view.value().events.size());
  for (const auto& [offset, length] : view.value().events) {
    auto cookie = core::peek_event_cookie(frame.subspan(offset, length));
    const std::uint64_t seq = cookie ? cookie.value() : 0;
    frame_max_seq = std::max(frame_max_seq, seq);
    if (seq != 0 && (frame_min_seq == 0 || seq < frame_min_seq)) frame_min_seq = seq;
    if (seq != 0 && seq <= watermark) continue;  // duplicate of a durable event
    kept.emplace_back(offset, length);
  }
  if (store_ != nullptr && source_known && frame_min_seq > watermark + 1) {
    // A hole between the watermark and this frame means records were lost
    // upstream — typically published while the inbox was closed across a
    // crash window. Accepting the frame would let its ack clear changelog
    // records that never reached the store, so refuse it: the collector
    // rewind replays the run contiguously, and the refused records stay
    // retained (visible) rather than lost (silent). A source with no
    // watermark entry is exempt — its first records may legitimately
    // start anywhere (changelog users register mid-stream).
    FSMON_WARN("aggregator", "refusing gapped frame from ", source, ": watermark ",
               watermark, ", frame starts at record ", frame_min_seq);
    if (gapped_counter_ != nullptr) gapped_counter_->inc();
    // The sender's transport-level send already succeeded, so the refusal
    // is invisible upstream; nack so the owning collector rewinds and
    // re-publishes the missing run instead of wedging on the gap.
    if (nack_callback_) nack_callback_(source, watermark);
    return false;
  }
  const std::size_t dropped = view.value().events.size() - kept.size();
  if (dropped > 0) {
    deduped_.fetch_add(dropped);
    if (deduped_counter_ != nullptr) deduped_counter_->inc(dropped);
  }
  if (!source.empty() && frame_max_seq > watermark)
    accepted_seq_[source] = frame_max_seq;
  if (kept.empty()) {
    // Nothing new. The ack still has to flow (a replayed-and-fully-
    // deduped batch must eventually clear from the changelog), but the
    // watermark only proves the records were *accepted* — the original
    // frame may still be waiting in the persist queue. Acking here
    // would let the changelog clear records that die with the process
    // if that persist fails, so route the ack through the persist queue
    // as an ack-only marker: it lands only after everything accepted
    // before it is durable.
    if (store_ != nullptr) {
      persist_queue_.push(PersistBatch{0, std::move(source), frame_max_seq, {}});
    } else {
      ack(source, frame_max_seq);
    }
    return false;
  }
  if (dropped > 0) {
    auto bytes = core::rebuild_batch(frame, kept);
    message.payload = transport::FrameRef::adopt(std::move(bytes));
    frame = message.payload.mutable_bytes();
    view = core::view_batch(frame, /*verify_crc=*/false);
    if (!view) return false;  // unreachable: rebuild produces valid frames
  }

  // Generic point first, then this instance's scoped point (set per
  // shard): a fault plan can hit every aggregator or exactly one.
  auto outcome = chaos::fault("aggregator.before_publish");
  if (!outcome && !options_.fault_scope.empty())
    outcome = chaos::fault(options_.fault_scope + "before_publish");
  if (outcome) {
    if (outcome.action == chaos::FaultAction::kCrash) {
      crashed_.store(true);
      return false;
    }
    if (outcome.action == chaos::FaultAction::kDelay) clock_.sleep_for(outcome.delay);
    if (outcome.action == chaos::FaultAction::kDrop) return false;
  }

  const std::size_t count = view.value().count;
  const common::EventId first_id = next_id_.fetch_add(count);
  if (auto patched = core::patch_batch_ids(frame, first_id); !patched) {
    FSMON_WARN("aggregator", "dropping unpatchable batch frame: ",
               patched.status().to_string());
    return false;
  }
  aggregated_.fetch_add(count);
  meter_.record(count);
  if (aggregated_counter_ != nullptr) {
    aggregated_counter_->inc(count);
    const auto depth =
        static_cast<std::int64_t>(input_->pending() + persist_queue_.size());
    queue_depth_gauge_->set(depth);
    queue_depth_peak_gauge_->set_max(depth);
    publish_rate_gauge_->set(static_cast<std::int64_t>(meter_.snapshot().average_rate));
    batch_size_hist_->record(count);
    batch_bytes_hist_->record(frame.size());
  }
  if (store_ != nullptr) {
    // The persister fans the frame out once it is durable.
    persist_queue_.push(PersistBatch{first_id, std::move(source), frame_max_seq,
                                     std::move(message.payload)});
  } else {
    // No durable store: custody ends at fan-out, ack immediately.
    publish(message.payload);
    ack(source, frame_max_seq);
  }
  return true;
}

void Aggregator::publish(const transport::FrameRef& frame) {
  // send() bumps the refcount per receiver; no copy is made. A refused
  // send is not retried: the hub fills the id gap from the store.
  output_->send(options_.output_topic, frame);
  if (fanout_lag_hist_ == nullptr) return;
  const auto bytes = frame.bytes();
  auto view = core::view_batch(bytes, /*verify_crc=*/false);
  if (!view) return;
  const auto now = clock_.now();
  for (const auto& [offset, length] : view.value().events) {
    auto timestamp = core::peek_event_timestamp(bytes.subspan(offset, length));
    if (!timestamp) continue;
    const auto lag = now - timestamp.value();
    if (lag.count() >= 0)
      fanout_lag_hist_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(lag).count()));
  }
}

void Aggregator::pump_loop(std::stop_token) {
  // Pump thread: drain the fan-in inbox one batch frame at a time,
  // assign an id block with a single fetch_add, patch the ids into the
  // already-encoded frame (no re-serialization), and hand the bytes to
  // the persister.
  for (;;) {
    if (crashed_.load(std::memory_order_relaxed)) break;
    auto message = input_->recv();
    if (!message) break;  // closed and drained
    process_frame(*message);
  }
}

bool Aggregator::persist_group(std::span<PersistBatch> group) {
  // Per-batch fault points first: chaos schedules count batches, not
  // groups, so a plan like "crash on the 3rd persist" fires at the same
  // batch it did under per-batch commit. A crash admits only the prefix
  // ahead of the firing batch — that prefix commits and acks (it would
  // have been durable before the crash under the old schedule), the
  // firing batch and everything after it die unacked.
  std::size_t admitted = group.size();
  bool crash_after_commit = false;
  for (std::size_t i = 0; i < group.size(); ++i) {
    auto outcome = chaos::fault("aggregator.before_persist");
    if (!outcome && !options_.fault_scope.empty())
      outcome = chaos::fault(options_.fault_scope + "before_persist");
    if (!outcome) continue;
    if (outcome.action == chaos::FaultAction::kCrash) {
      admitted = i;
      crash_after_commit = true;
      break;
    }
    if (outcome.action == chaos::FaultAction::kDelay) clock_.sleep_for(outcome.delay);
  }
  group = group.first(admitted);

  // Slice the admitted group into payload spans. Ids are consecutive
  // across the whole group (one pump thread assigns them in queue order;
  // ack-only markers carry no ids so they never break a run), so the
  // entire group commits with ONE vectored store append and ONE flush.
  std::vector<std::span<const std::byte>> payloads;
  common::EventId first_id = 0;
  std::size_t data_batches = 0;
  bool torn_crash = false;
  std::uint64_t torn_keep = 0;
  for (auto& batch : group) {
    if (batch.frame.empty()) continue;  // ack-only marker
    const auto frame = batch.frame.bytes();
    // CRC was verified (and rewritten by the id patch) in the pump; only
    // the structure is needed to slice out per-event payloads.
    auto view = core::view_batch(frame, /*verify_crc=*/false);
    if (!view) {
      FSMON_ERROR("aggregator", "persist batch unreadable: ", view.status().to_string());
      crashed_.store(true);
      return false;
    }
    if (data_batches == 0) first_id = batch.first_id;
    ++data_batches;
    for (const auto& [offset, length] : view.value().events)
      payloads.push_back(frame.subspan(offset, length));
  }

  if (data_batches > 0) {
    // Torn-group fault, evaluated once per commit group: kCrash keeps a
    // prefix of the group's batches (outcome.arg of them) durable but
    // crashes before ANY ack is released — the replayed suffix dedups
    // against the store's watermark after restart. kFail is a fail-stop
    // with nothing written.
    auto torn = chaos::fault("wal.group_commit_torn");
    if (!torn && !options_.fault_scope.empty())
      torn = chaos::fault(options_.fault_scope + "group_commit_torn");
    if (torn) {
      if (torn.action == chaos::FaultAction::kCrash) {
        torn_crash = true;
        torn_keep = std::min<std::uint64_t>(torn.arg, data_batches);
      } else if (torn.action == chaos::FaultAction::kFail ||
                 torn.action == chaos::FaultAction::kDrop) {
        FSMON_ERROR("aggregator", "injected group-commit failure (fail-stop)");
        crashed_.store(true);
        return false;
      } else if (torn.action == chaos::FaultAction::kDelay) {
        clock_.sleep_for(torn.delay);
      }
    }
    if (torn_crash) {
      // Truncate the commit to the torn prefix: re-slice payloads from
      // the first `torn_keep` data batches only.
      payloads.clear();
      std::size_t kept_batches = 0;
      for (auto& batch : group) {
        if (batch.frame.empty()) continue;
        if (kept_batches == torn_keep) break;
        const auto frame = batch.frame.bytes();
        auto view = core::view_batch(frame, /*verify_crc=*/false);
        for (const auto& [offset, length] : view.value().events)
          payloads.push_back(frame.subspan(offset, length));
        ++kept_batches;
      }
    }

    // Modeled commit latency (paper: one MySQL commit per stored group),
    // paid before the append so the group is durable only after the
    // round trip — exactly where a real remote commit would block.
    if (options_.commit_latency.count() > 0) clock_.sleep_for(options_.commit_latency);
    const auto commit_start = std::chrono::steady_clock::now();
    if (!payloads.empty()) {
      if (auto s = store_->append_batch(first_id, payloads); !s.is_ok()) {
        // Fail-stop: dropping the group here would break the "acked
        // implies durable" invariant, so the stage crashes instead. The
        // events stay unacked in the changelog and replay after restart.
        FSMON_ERROR("aggregator", "event store append failed (fail-stop): ", s.to_string());
        crashed_.store(true);
        return false;
      }
      // The group's flush: without it a small group's bytes sit in the
      // WAL writer's user-space buffer when its acks go out, and a
      // process crash would lose records the changelog already cleared.
      // One flush per group (append_batch already flushed when the store
      // flushes every append). A failed flush is a fail-stop like a
      // failed append.
      if (!options_.store->flush_each_append) {
        if (auto s = store_->flush(); !s.is_ok()) {
          FSMON_ERROR("aggregator", "event store flush failed (fail-stop): ", s.to_string());
          crashed_.store(true);
          return false;
        }
      }
    }
    if (torn_crash) {
      // Torn mid-group: a durable prefix exists but the process died
      // before the group's fsync was acknowledged to anyone — no batch
      // of this group is sent or acked.
      crashed_.store(true);
      return false;
    }
    durable_id_.store(first_id + payloads.size() - 1);
    commit_groups_.fetch_add(1);
    if (group_size_hist_ != nullptr) group_size_hist_->record(data_batches);
    if (group_commit_latency_hist_ != nullptr) {
      const auto commit_us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - commit_start);
      group_commit_latency_hist_->record(static_cast<std::uint64_t>(commit_us.count()));
    }
    persisted_.fetch_add(payloads.size());
    if (persisted_counter_ != nullptr) persisted_counter_->inc(payloads.size());
  }

  // The whole group is durable: fan its frames out, then release acks in
  // queue order, markers included (everything queued ahead of a marker
  // committed with or before this group).
  for (auto& batch : group) {
    if (!batch.frame.empty()) publish(batch.frame);
  }
  for (auto& batch : group) ack(batch.source, batch.last_seq);

  if (crash_after_commit) {
    crashed_.store(true);
    return false;
  }
  return true;
}

void Aggregator::persist_loop(std::stop_token) {
  std::vector<PersistBatch> group;
  for (;;) {
    if (crashed_.load(std::memory_order_relaxed)) break;
    auto first = persist_queue_.pop();
    if (!first) break;
    group.clear();
    group.push_back(std::move(*first));
    // Group commit: coalesce whatever is already queued (and optionally
    // wait wal_group_commit_us for stragglers) up to the byte budget,
    // then commit the whole group with one vectored append + one fsync.
    if (options_.wal_group_commit_bytes > 0) {
      std::size_t bytes = group.back().frame.size();
      while (bytes < options_.wal_group_commit_bytes) {
        auto next = persist_queue_.try_pop();
        if (!next && options_.wal_group_commit_us.count() > 0)
          next = persist_queue_.pop_for(options_.wal_group_commit_us);
        if (!next) break;
        bytes += next->frame.size();
        group.push_back(std::move(*next));
      }
    }
    persist_group(group);
  }
}

void Aggregator::purge_loop(std::stop_token stop) {
  // Sliced waiting so shutdown is prompt even with long purge intervals.
  const auto slice = std::chrono::milliseconds(10);
  auto remaining = options_.purge_interval;
  while (!stop.stop_requested()) {
    clock_.sleep_for(std::min<common::Duration>(slice, remaining));
    remaining -= slice;
    if (remaining.count() > 0) continue;
    remaining = options_.purge_interval;
    purge();
    purge_cycles_.fetch_add(1);
  }
}

Result<std::vector<core::StdEvent>> Aggregator::events_since(common::EventId after_id,
                                                             std::size_t max_events) const {
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr)
    return Status(common::ErrorCode::kUnavailable, "aggregator has no event store");
  return core::decode_events_since(*store_, after_id, max_events);
}

void Aggregator::acknowledge(common::EventId up_to_id) {
  std::shared_lock lock(store_mu_);
  if (store_ != nullptr) store_->mark_reported(up_to_id);
}

std::size_t Aggregator::purge() {
  std::shared_lock lock(store_mu_);
  return store_ != nullptr ? store_->purge_reported() : 0;
}

}  // namespace fsmon::scalable
