#include "src/scalable/consumer.hpp"

#include <algorithm>

#include "src/common/logging.hpp"

namespace fsmon::scalable {

using common::Result;
using common::Status;

namespace {

/// Records the thread inside a delivery for as long as it holds
/// deliver_mu_ across the application callback, so a reentrant
/// acknowledge_processed() (a checkpoint inside on_batch) can tell it
/// must not touch deliver_mu_ again on this thread.
class DeliveryOwner {
 public:
  explicit DeliveryOwner(std::atomic<std::thread::id>& owner) : owner_(owner) {
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  ~DeliveryOwner() { owner_.store(std::thread::id{}, std::memory_order_relaxed); }
  DeliveryOwner(const DeliveryOwner&) = delete;
  DeliveryOwner& operator=(const DeliveryOwner&) = delete;

 private:
  std::atomic<std::thread::id>& owner_;
};

}  // namespace

Consumer::Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
                   EventCallback callback)
    : Consumer(aggregator, std::move(name), std::move(options), std::move(callback),
               BatchCallback{}) {}

Consumer::Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
                   BatchCallback callback)
    : Consumer(aggregator, std::move(name), std::move(options), EventCallback{},
               std::move(callback)) {}

Consumer::Consumer(msgq::Bus&, ShardedAggregator& aggregator, std::string name,
                   ConsumerOptions options, BatchCallback callback)
    : Consumer(aggregator, std::move(name), std::move(options), std::move(callback)) {}

Consumer::Consumer(ShardedAggregator& aggregator, std::string name, ConsumerOptions options,
                   EventCallback callback, BatchCallback batch_callback)
    : aggregator_(aggregator),
      name_(std::move(name)),
      options_(std::move(options)),
      callback_(std::move(callback)),
      batch_callback_(std::move(batch_callback)),
      seen_(aggregator.shard_count()),
      acked_(aggregator.shard_count()),
      ack_floor_(aggregator.shard_count()) {
  if (options_.metrics != nullptr) {
    auto& registry = *options_.metrics;
    const obs::Labels labels{{"consumer", name_}};
    filter_metrics_ = core::FilterMetrics::create(registry, labels);
    delivered_counter_ = &registry.counter("consumer.events_delivered", labels,
                                           "Matching events handed to the callback",
                                           "events");
    replayed_counter_ = &registry.counter(
        "consumer.events_replayed", labels,
        "Events re-delivered from the reliable store (fault recovery)", "events");
    delivery_lag_gauge_ = &registry.gauge(
        "consumer.delivery_lag_events", labels,
        "Sum of shard head ids minus events seen by this consumer", "events");
    batch_size_hist_ = &registry.histogram("consumer.batch_size", labels,
                                           "Events per batch received by this consumer",
                                           "events");
  }
  // Compile the rule set once at subscription: normalized roots, kind
  // masks, and the filter.* counters bound up front so the delivery hot
  // path never does a labelled-counter lookup or a per-rule path
  // normalization per event.
  compiled_ = core::CompiledRuleSet(options_.rules, filter_metrics_);
  if (options_.hub != nullptr)
    hub_sub_ = options_.hub->subscribe(name_, compiled_.rules());
}

Consumer::~Consumer() {
  stop();
  if (hub_sub_ != nullptr) options_.hub->unsubscribe(*hub_sub_);
}

bool Consumer::matches(const core::StdEvent& event) const {
  return compiled_.matches(event);
}

FlowState Consumer::flow_state() const {
  if (hub_sub_ == nullptr) return FlowState::kLive;
  return options_.hub->state(*hub_sub_);
}

VectorCursor Consumer::seen_cursor() const {
  std::lock_guard lock(deliver_mu_);
  return seen_;
}

void Consumer::deliver_batch(const core::EventBatch& batch, bool dedup) {
  if (batch.empty()) return;
  std::lock_guard lock(deliver_mu_);
  DeliveryOwner owner(deliver_owner_);
  deliver_locked(batch, dedup, /*already_filtered=*/false);
}

void Consumer::deliver_locked(const core::EventBatch& batch, bool dedup,
                              bool already_filtered) {
  // A live frame carries one shard's events; a merged replay page may
  // mix shards. Either way the owning shard is recomputed from the
  // event source through the shared map — the same rule the router
  // applied on the write path — once per run of same-source events.
  // Each shard's ids are dense and never reassigned, so with `dedup` an
  // event at or below its shard's seen watermark was delivered already.
  //
  // The batch callback gets the batch itself when every event survives
  // dedup and filtering; the first dropped event switches to a copy of
  // the survivors, so each delivered event is copied at most once.
  const std::vector<core::StdEvent>& events = batch.events;
  const bool sharded = aggregator_.shard_count() > 1;
  const std::string* run_source = nullptr;
  std::size_t shard = 0;
  const core::EventBatch* delivering = &batch;
  core::EventBatch survivors;
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const core::StdEvent& event = events[i];
    if (sharded && (run_source == nullptr || event.source != *run_source)) {
      run_source = &event.source;
      shard = aggregator_.map().shard_of(event.source);
    }
    bool keep = true;
    if (dedup && event.id <= seen_.at(shard)) {
      ++duplicates;
      keep = false;
    } else {
      seen_.advance(shard, event.id);
      if (!already_filtered && !compiled_.matches(event)) {
        ++dropped;
        keep = false;
      }
    }
    if (!keep) {
      if (batch_callback_ && delivering == &batch) {
        survivors.events.reserve(events.size() - 1);
        survivors.events.assign(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(i));
        delivering = &survivors;
      }
      continue;
    }
    ++delivered;
    if (delivering == &survivors)
      survivors.events.push_back(event);
    else if (!batch_callback_ && callback_)
      callback_(event);
  }
  last_seen_sum_.store(seen_.sum());
  if (delivery_lag_gauge_ != nullptr) {
    const auto head = aggregator_.last_event_id_sum();
    const auto seen = seen_.sum();
    delivery_lag_gauge_->set(head > seen ? static_cast<std::int64_t>(head - seen) : 0);
    if (!batch.empty()) batch_size_hist_->record(batch.size());
  }
  // One batched add per counter instead of 2-3 atomic increments per
  // event. Hub-delivered batches were matched by the shared index and
  // are not re-counted here.
  if (!already_filtered) filter_metrics_.count(delivered, dropped);
  if (duplicates > 0) duplicates_.fetch_add(duplicates);
  if (dropped > 0) filtered_.fetch_add(dropped);
  if (delivered > 0) {
    delivered_.fetch_add(delivered);
    if (delivered_counter_ != nullptr) delivered_counter_->inc(delivered);
  }
  if (batch_callback_ && delivered > 0) batch_callback_(*delivering);
  maybe_ack_locked();
}

void Consumer::maybe_ack_locked() {
  if (hub_sub_ == nullptr) return;  // replay-only
  if (options_.manual_acks) {
    // Durability stays with the application: acknowledge only up to the
    // published floor, clamped to what was actually seen and never
    // regressing. Hub credits are still replenished every cadence so
    // flow control reflects processing, not durability.
    VectorCursor floor(seen_.size());
    bool dirty = false;
    {
      std::lock_guard lock(ack_floor_mu_);
      floor = ack_floor_;
      dirty = ack_floor_dirty_;
      ack_floor_dirty_ = false;
    }
    floor.ensure(seen_.size());
    for (std::size_t k = 0; k < seen_.size(); ++k) {
      floor.last_ids[k] = std::min(floor.at(k), seen_.at(k));
      floor.last_ids[k] = std::max(floor.at(k), acked_.at(k));
    }
    if (hub_processed_since_ack_ >= options_.ack_interval || dirty) {
      options_.hub->acknowledge(*hub_sub_, floor, hub_processed_since_ack_);
      hub_processed_since_ack_ = 0;
      acked_ = floor;
    }
    return;
  }
  if (options_.ack_interval == 0 ||
      seen_.sum() - acked_.sum() < options_.ack_interval)
    return;
  options_.hub->acknowledge(*hub_sub_, seen_, hub_processed_since_ack_);
  hub_processed_since_ack_ = 0;
  acked_ = seen_;
}

void Consumer::acknowledge_processed(const VectorCursor& cursor) {
  if (!options_.manual_acks) return;
  {
    std::lock_guard lock(ack_floor_mu_);
    ack_floor_.ensure(cursor.size());
    for (std::size_t k = 0; k < cursor.size(); ++k)
      ack_floor_.advance(k, cursor.at(k));
    ack_floor_dirty_ = true;
  }
  // Reentry from inside the delivery callback: this thread already owns
  // deliver_mu_ (try_lock on an owned std::mutex is UB), and the batch
  // that invoked the callback runs its own ack check right after the
  // callback returns, which publishes the floor set above.
  if (deliver_owner_.load(std::memory_order_relaxed) == std::this_thread::get_id())
    return;
  // Foreign thread: push promptly when the delivery lock is free (e.g.
  // the caller checkpoints between batches); when a delivery is in
  // flight its ack check picks the floor up instead.
  if (deliver_mu_.try_lock()) {
    std::lock_guard lock(deliver_mu_, std::adopt_lock);
    maybe_ack_locked();
  }
}

Status Consumer::start() {
  if (running_.load()) return Status::ok();
  if (hub_sub_ == nullptr)
    return Status(common::ErrorCode::kInvalid, name_ + ": replay-only consumer (no hub)");
  running_.store(true);
  options_.hub->attach(*hub_sub_, [this](const HubItem& item) { return on_hub_item(item); });
  return Status::ok();
}

void Consumer::stop() {
  if (!running_.load()) return;
  // After detach() no turn runs, so catch_up_ is this thread's alone.
  options_.hub->detach(*hub_sub_);
  if (catch_up_.joinable()) {
    catch_up_.request_stop();
    catch_up_.join();
  }
  running_.store(false);
}

void Consumer::crash() {
  // Fail-stop: identical teardown to stop() except semantically abrupt —
  // nothing further is acknowledged.
  stop();
}

Status Consumer::restart() {
  if (running_.load()) return Status::ok();
  VectorCursor resume;
  {
    std::lock_guard lock(deliver_mu_);
    resume = acked_;
  }
  // Replay BEFORE delivery resumes: the replay raises the seen floor to
  // the end of the stores, so the live items queued meanwhile that it
  // covered are dropped as duplicates and the rest follow in order.
  if (auto replayed = replay_historic(std::move(resume), /*rewind=*/true); !replayed) {
    return replayed.status();
  }
  return start();
}

FanOutHub::Turn Consumer::on_hub_item(const HubItem& item) {
  switch (item.kind) {
    case HubItem::Kind::kBatch:
      deliver_hub_item(item);
      break;
    case HubItem::Kind::kDemoted:
      // The subscription stays parked (no live item reaches the
      // callback) until the catch-up has closed the promotion seam.
      catch_up_ = std::jthread([this](std::stop_token stop) {
        catch_up(stop);
        options_.hub->resume(*hub_sub_);
      });
      return FanOutHub::Turn::kPark;
    case HubItem::Kind::kEvicted:
      evicted_.store(true);
      break;
  }
  return FanOutHub::Turn::kContinue;
}

void Consumer::deliver_hub_item(const HubItem& item) {
  const core::EventBatch& frame = *item.batch;
  std::lock_guard lock(deliver_mu_);
  DeliveryOwner owner(deliver_owner_);
  hub_processed_since_ack_ += item.indices.size();
  // Matched events at or below the shard's floor were delivered already
  // (by a replay, or before a restart). The frame itself is handed over
  // when every event matched and none is below the floor.
  const common::EventId floor = seen_.at(item.shard);
  const core::EventBatch* batch = &frame;
  core::EventBatch fresh;
  if (item.indices.size() != frame.size() || frame.events.front().id <= floor) {
    fresh.events.reserve(item.indices.size());
    for (std::uint32_t index : item.indices) {
      if (frame.events[index].id > floor) fresh.events.push_back(frame.events[index]);
    }
    if (fresh.size() < item.indices.size())
      duplicates_.fetch_add(item.indices.size() - fresh.size());
    batch = &fresh;
  }
  // Then advance the watermark over the whole frame (matched or not), so
  // acks keep progressing for consumers whose rules match sparsely.
  seen_.advance(item.shard, frame.events.back().id);
  deliver_locked(*batch, /*dedup=*/false, /*already_filtered=*/true);
}

void Consumer::catch_up(std::stop_token stop) {
  // Demoted: live delivery stopped at the seen watermark. Page the
  // merged store replay through this consumer's own rules until within
  // promotion range of the live head, then finish to the promotion
  // watermark. The paging never runs under deliver_mu_.
  const std::size_t page = options_.replay_page > 0 ? options_.replay_page : 4096;
  std::size_t replayed = 0;
  auto backoff = std::chrono::milliseconds(1);
  while (!stop.stop_requested()) {
    if (options_.hub->state(*hub_sub_) == FlowState::kEvicted) {
      evicted_.store(true);
      return;
    }
    VectorCursor cursor = seen_cursor();
    auto events = aggregator_.events_since(cursor, page);
    if (!events) {
      // A transient store error (a shard mid-restart, a paged read
      // racing a purge) must not end catch-up: the hub sends the
      // kDemoted marker exactly once, so returning while still demoted
      // would strand this consumer — never promoted, pinning the
      // min-ack cursor forever. Back off and retry until stopped.
      FSMON_WARN("consumer", "catch-up replay failed (retrying): ",
                 events.status().to_string());
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
      continue;
    }
    backoff = std::chrono::milliseconds(1);
    const std::size_t got = events.value().size();
    if (got > 0) {
      core::EventBatch batch;
      batch.events = std::move(events.value());
      replayed += got;
      deliver_batch(batch);
    }
    // A short page reached the end of every store, so at least the hub's
    // head (which is durable). Promotion fails only when the head moved
    // on by more than promote_lag meanwhile; then there is more to page.
    if (got < page) {
      if (auto target = options_.hub->try_promote(*hub_sub_, seen_cursor())) {
        replay_to_watermark(*target, stop);
        if (replayed_counter_ != nullptr && replayed > 0)
          replayed_counter_->inc(replayed);
        return;
      }
    }
  }
}

void Consumer::replay_to_watermark(const VectorCursor& target,
                                   std::stop_token stop) {
  // Promotion happened at `target`: frames matched after it are queued
  // live, so replaying up to it closes the demotion gap; the id floor
  // drops any overlap. The target is durable, so the store holds it.
  const std::size_t page = options_.replay_page > 0 ? options_.replay_page : 4096;
  auto backoff = std::chrono::milliseconds(1);
  while (!stop.stop_requested()) {
    VectorCursor cursor = seen_cursor();
    bool reached = true;
    for (std::size_t k = 0; k < target.size(); ++k) {
      if (cursor.at(k) < target.at(k)) {
        reached = false;
        break;
      }
    }
    if (reached) return;
    auto events = aggregator_.events_since(cursor, page);
    if (!events) {
      // Giving up short of the promotion watermark would leave a silent
      // gap: the hub already resumed live delivery above `target`, so
      // the unreplayed remainder would never arrive. Retry — the seam
      // is only closed once the cursor reaches the target.
      FSMON_WARN("consumer", "promotion replay failed (retrying): ",
                 events.status().to_string());
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
      continue;
    }
    backoff = std::chrono::milliseconds(1);
    if (events.value().empty()) {
      FSMON_ERROR("consumer", name_, ": the stores end short of the promotion watermark");
      return;
    }
    core::EventBatch batch;
    batch.events = std::move(events.value());
    deliver_batch(batch);
  }
}

Result<std::size_t> Consumer::replay_historic(std::optional<common::EventId> after_id) {
  VectorCursor cursor(aggregator_.shard_count());
  if (after_id.has_value()) {
    for (auto& id : cursor.last_ids) id = *after_id;
    return replay_historic(std::move(cursor), /*rewind=*/true);
  }
  {
    std::lock_guard lock(deliver_mu_);
    cursor = acked_;
  }
  return replay_historic(std::move(cursor), /*rewind=*/false);
}

Result<std::size_t> Consumer::replay_historic(VectorCursor cursor, bool rewind) {
  // An intentional rewind bypasses the id floor, so the requested range
  // is delivered again. The seen watermark still advances over it, so
  // live duplicates of the replayed range are dropped afterwards.
  //
  // Page through the merged view instead of materializing the whole
  // backlog: a consumer that lagged by millions of events replays in
  // `replay_page`-sized merged pages, each fetched (and freed) in turn.
  // The page fetch never runs under deliver_mu_ — the stores are paged
  // first, delivery locks second — so a slow callback can stall
  // delivery but never deadlock the store paging of any shard.
  const std::size_t page = options_.replay_page > 0 ? options_.replay_page : 4096;
  std::size_t count = 0;
  for (;;) {
    auto events = aggregator_.events_since(cursor, page);
    if (!events) return events.status();
    if (events.value().empty()) break;
    core::EventBatch batch;
    batch.events = std::move(events.value());
    count += batch.size();
    deliver_batch(batch, /*dedup=*/!rewind);
    if (batch.size() < page) break;
  }
  if (replayed_counter_ != nullptr) replayed_counter_->inc(count);
  return count;
}

}  // namespace fsmon::scalable
