#include "src/scalable/flow_control.hpp"

#include <algorithm>

#include "src/common/logging.hpp"

namespace fsmon::scalable {

using common::Status;

namespace {
/// Pump frames between unsolicited min-ack forwards (covers the
/// nobody-is-acking case; every consumer ack still forwards eagerly).
constexpr std::size_t kIdleForwardInterval = 64;
/// Items one delivery turn hands a subscription's handler before the
/// worker moves on, so one busy subscription cannot hold a worker.
constexpr std::size_t kTurnItems = 16;
/// Store records read per page while filling an id gap.
constexpr std::uint64_t kFillPage = 4096;
/// A worker inside one turn for longer than this counts as stuck in a
/// callback. When every worker is stuck and work waits, the pool starts
/// one more worker. Far above a normal turn, so it fires on callbacks
/// that block, not on slow ones.
constexpr auto kHandoffAfter = std::chrono::milliseconds(20);
}  // namespace

std::string_view to_string(FlowState state) {
  switch (state) {
    case FlowState::kLive: return "live";
    case FlowState::kDemoted: return "demoted";
    case FlowState::kEvicted: return "evicted";
  }
  return "unknown";
}

FlowMetrics FlowMetrics::create(obs::MetricsRegistry& registry,
                                const obs::Labels& labels) {
  FlowMetrics m;
  m.demotions = &registry.counter(
      "flow.demotions", labels,
      "Subscriptions demoted to store replay after exhausting credits",
      "demotions");
  m.promotions = &registry.counter(
      "flow.promotions", labels,
      "Subscriptions promoted back to live delivery after catch-up",
      "promotions");
  m.evictions = &registry.counter(
      "flow.evictions", labels,
      "Demoted subscriptions evicted for never draining", "evictions");
  m.live = &registry.gauge("flow.live_subscribers", labels,
                           "Subscriptions in live delivery", "subscribers");
  m.demoted = &registry.gauge("flow.demoted_subscribers", labels,
                              "Subscriptions catching up from the store",
                              "subscribers");
  m.delivery_workers = &registry.gauge(
      "flow.delivery_workers", labels,
      "Hub delivery workers running (pool size plus handoff workers)", "threads");
  m.delivery_handoffs = &registry.counter(
      "flow.delivery_handoffs", labels,
      "Extra delivery workers started because every worker was stuck in a callback",
      "workers");
  m.gap_filled = &registry.counter(
      "flow.gap_filled_events", labels,
      "Records the hub read from a shard's store to fill an id gap in its frames",
      "events");
  return m;
}

FanOutHub::FanOutHub(ShardedAggregator& aggregator, FlowControlOptions options)
    : aggregator_(aggregator),
      options_(options),
      index_(options.metrics != nullptr
                 ? SubIndexMetrics::create(*options.metrics)
                 : SubIndexMetrics{}),
      heads_(aggregator.shard_count()),
      forwarded_(aggregator.shard_count()),
      pool_size_(std::max<std::size_t>(2, std::thread::hardware_concurrency())) {
  if (options_.credit_window == 0) options_.credit_window = 1;
  if (options_.promote_lag == 0)
    options_.promote_lag = std::max<std::uint64_t>(1, options_.credit_window / 4);
  if (options_.metrics != nullptr)
    metrics_ = FlowMetrics::create(*options_.metrics);
  receiver_ = aggregator_.transport().make_receiver(
      "fanout-hub", options_.high_water_mark, transport::OverflowPolicy::kBlock);
  receiver_->subscribe("");
  for (std::size_t k = 0; k < aggregator_.shard_count(); ++k)
    aggregator_.shard(k).connect_output(receiver_);
  // Start from the current live watermark: events published before a
  // subscription exists are historic; a late consumer replays them from
  // the store.
  heads_ = aggregator_.head_cursor();
}

FanOutHub::~FanOutHub() { stop(); }

Status FanOutHub::start() {
  if (running_.load()) return Status::ok();
  running_.store(true);
  if (receiver_->closed()) receiver_->reopen();  // started again after stop()
  {
    std::lock_guard lock(pool_mu_);
    pool_stopping_ = false;
    for (std::size_t i = 0; i < pool_size_; ++i) start_worker_locked();
  }
  monitor_thread_ = std::thread([this] { handoff_monitor(); });
  pump_thread_ = std::jthread([this](std::stop_token stop) { pump(stop); });
  return Status::ok();
}

void FanOutHub::stop() {
  // Close unconditionally: the constructor already connected this
  // receiver to every shard, so a hub destroyed without start() (or
  // stopped twice) would otherwise leave a kBlock inbox open that can
  // fill up and wedge the shard senders. close() is idempotent.
  receiver_->close();
  if (!running_.load()) return;
  if (pump_thread_.joinable()) {
    pump_thread_.request_stop();
    pump_thread_.join();
  }
  // Workers finish the turn they are in; queued items stay queued.
  std::list<Worker> workers;
  {
    std::lock_guard lock(pool_mu_);
    pool_stopping_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  monitor_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  for (Worker& worker : workers) worker.thread.join();
  {
    std::lock_guard lock(pool_mu_);
    live_workers_ = 0;
    if (metrics_.delivery_workers != nullptr) metrics_.delivery_workers->set(0);
  }
  running_.store(false);
}

std::shared_ptr<FanOutHub::Subscription> FanOutHub::subscribe(
    std::string name, std::span<const core::CompiledRule> rules) {
  auto sub = std::make_shared<Subscription>();
  std::lock_guard lock(mu_);
  sub->name_ = std::move(name);
  sub->id_ = index_.add_subscriber(rules);
  sub->state_ = FlowState::kLive;
  sub->credits_ = static_cast<std::int64_t>(options_.credit_window);
  sub->acked_ = heads_;
  // A frame the pump has already matched (without this subscriber in
  // the index) but not yet committed to heads_ would otherwise sit
  // above the recorded watermark while never being delivered or
  // replayed — count it as historic. If add_subscriber instead won the
  // race on the index lock, the frame arrives live as an early
  // (pre-watermark) delivery, which is harmless: fresh, deduped, no gap.
  if (pending_valid_) sub->acked_.advance(pending_shard_, pending_last_id_);
  if (subs_.size() <= sub->id_) subs_.resize(sub->id_ + 1);
  subs_[sub->id_] = sub;
  ++live_count_;
  update_gauges_locked();
  return sub;
}

void FanOutHub::unsubscribe(Subscription& sub) {
  {
    std::lock_guard lock(mu_);
    if (sub.id_ < subs_.size() && subs_[sub.id_].get() == &sub) {
      if (sub.state_ != FlowState::kEvicted) {
        index_.remove_subscriber(sub.id_);
        if (sub.state_ == FlowState::kLive) --live_count_;
        if (sub.state_ == FlowState::kDemoted) --demoted_count_;
        std::erase(demoted_, sub.id_);
        sub.state_ = FlowState::kEvicted;
      }
      subs_[sub.id_] = nullptr;
      forward_acks_locked();
      update_gauges_locked();
    }
  }
  std::lock_guard qlock(sub.queue_mu_);
  sub.queue_closed_ = true;
  sub.queue_.clear();
}

void FanOutHub::attach(Subscription& sub, Handler handler) {
  SubscriptionList ready;
  {
    std::lock_guard hub_lock(mu_);
    std::lock_guard lock(sub.queue_mu_);
    sub.handler_ = std::move(handler);
    sub.attached_ = true;
    if (sub.state_ == FlowState::kDemoted && !sub.catch_up_queued_ && !sub.queue_closed_) {
      HubItem marker;
      marker.kind = HubItem::Kind::kDemoted;
      sub.queue_.push_back(std::move(marker));
      sub.catch_up_queued_ = true;
    }
    if (sub.delivery_ == Subscription::Delivery::kIdle && !sub.queue_.empty()) {
      sub.delivery_ = Subscription::Delivery::kQueued;
      ready.push_back(sub.shared_from_this());
    }
  }
  schedule(ready);
}

void FanOutHub::detach(Subscription& sub) {
  std::unique_lock lock(sub.queue_mu_);
  sub.attached_ = false;
  sub.turn_done_.wait(lock, [&sub] {
    return sub.delivery_ != Subscription::Delivery::kRunning;
  });
  // A queued subscription stays on the run queue; the worker that takes
  // it sees it detached and sets it idle.
  if (sub.delivery_ == Subscription::Delivery::kParked)
    sub.delivery_ = Subscription::Delivery::kIdle;
  sub.resume_pending_ = false;
  sub.handler_ = nullptr;
}

void FanOutHub::resume(Subscription& sub) {
  SubscriptionList ready;
  {
    std::lock_guard lock(sub.queue_mu_);
    if (sub.delivery_ == Subscription::Delivery::kRunning) {
      // The handler that parks the subscription has not returned yet
      // (its catch-up finished first): run_turn sees this and goes on.
      sub.resume_pending_ = true;
      return;
    }
    if (sub.delivery_ != Subscription::Delivery::kParked) return;
    if (sub.attached_ && !sub.queue_.empty()) {
      sub.delivery_ = Subscription::Delivery::kQueued;
      ready.push_back(sub.shared_from_this());
    } else {
      sub.delivery_ = Subscription::Delivery::kIdle;
    }
  }
  schedule(ready);
}

void FanOutHub::acknowledge(Subscription& sub, const VectorCursor& cursor,
                            std::uint64_t processed_events) {
  std::lock_guard lock(mu_);
  if (sub.state_ == FlowState::kEvicted) return;
  for (std::size_t k = 0; k < cursor.size(); ++k)
    sub.acked_.advance(k, cursor.at(k));
  sub.credits_ = std::min<std::int64_t>(
      static_cast<std::int64_t>(options_.credit_window),
      sub.credits_ + static_cast<std::int64_t>(processed_events));
  forward_acks_locked();
}

std::optional<VectorCursor> FanOutHub::try_promote(Subscription& sub,
                                                   const VectorCursor& cursor) {
  std::lock_guard lock(mu_);
  if (sub.state_ != FlowState::kDemoted) return std::nullopt;
  const std::uint64_t head = heads_.sum();
  const std::uint64_t reached = cursor.sum();
  if (head > reached && head - reached > options_.promote_lag)
    return std::nullopt;
  sub.state_ = FlowState::kLive;
  sub.credits_ = static_cast<std::int64_t>(options_.credit_window);
  std::erase(demoted_, sub.id_);
  --demoted_count_;
  ++live_count_;
  if (metrics_.promotions != nullptr) metrics_.promotions->inc();
  update_gauges_locked();
  // Every frame matched before this point has last_id <= this snapshot;
  // every frame after it is delivered live. The caller finishes its
  // replay exactly to the snapshot for a gap-free, duplicate-free seam.
  return heads_;
}

FlowState FanOutHub::state(const Subscription& sub) const {
  std::lock_guard lock(mu_);
  return sub.state_;
}

std::int64_t FanOutHub::credits(const Subscription& sub) const {
  std::lock_guard lock(mu_);
  return sub.credits_;
}

VectorCursor FanOutHub::head_cursor() const {
  std::lock_guard lock(mu_);
  return heads_;
}

std::size_t FanOutHub::delivery_workers() const {
  std::lock_guard lock(pool_mu_);
  return live_workers_;
}

void FanOutHub::push_item(const std::shared_ptr<Subscription>& sub, HubItem item,
                          SubscriptionList& ready) {
  std::lock_guard lock(sub->queue_mu_);
  if (sub->queue_closed_) return;
  if (item.kind == HubItem::Kind::kDemoted) sub->catch_up_queued_ = true;
  sub->queue_.push_back(std::move(item));
  if (sub->attached_ && sub->delivery_ == Subscription::Delivery::kIdle) {
    sub->delivery_ = Subscription::Delivery::kQueued;
    ready.push_back(sub);
  }
}

void FanOutHub::demote_locked(const std::shared_ptr<Subscription>& sub,
                              SubscriptionList& ready) {
  sub->state_ = FlowState::kDemoted;
  demoted_.push_back(sub->id_);
  --live_count_;
  ++demoted_count_;
  if (metrics_.demotions != nullptr) metrics_.demotions->inc();
  update_gauges_locked();
  HubItem marker;
  marker.kind = HubItem::Kind::kDemoted;
  push_item(sub, std::move(marker), ready);
}

void FanOutHub::evict_overdue_locked(SubscriptionList& ready) {
  if (options_.eviction_lag == 0 || demoted_.empty()) return;
  const std::uint64_t head = heads_.sum();
  for (std::size_t i = 0; i < demoted_.size();) {
    auto& sub = subs_[demoted_[i]];
    const std::uint64_t acked = sub->acked_.sum();
    if (head > acked && head - acked > options_.eviction_lag) {
      index_.remove_subscriber(sub->id_);
      sub->state_ = FlowState::kEvicted;
      --demoted_count_;
      if (metrics_.evictions != nullptr) metrics_.evictions->inc();
      HubItem marker;
      marker.kind = HubItem::Kind::kEvicted;
      push_item(sub, std::move(marker), ready);
      demoted_[i] = demoted_.back();
      demoted_.pop_back();
      forward_acks_locked();
      update_gauges_locked();
    } else {
      ++i;
    }
  }
}

void FanOutHub::schedule(SubscriptionList& ready) {
  if (ready.empty()) return;
  std::size_t wake = 0;
  bool arm_monitor = false;
  {
    std::lock_guard lock(pool_mu_);
    for (auto& sub : ready) run_queue_.push_back(std::move(sub));
    // Wake only workers that are idle and not already woken: a busy
    // worker takes the next subscription when its turn ends.
    const std::size_t idle =
        idle_workers_ > wakes_pending_ ? idle_workers_ - wakes_pending_ : 0;
    wake = std::min(ready.size(), idle);
    wakes_pending_ += wake;
    if (wake < ready.size() && !monitor_armed_) {
      monitor_armed_ = true;
      arm_monitor = true;
    }
  }
  ready.clear();
  for (std::size_t i = 0; i < wake; ++i) work_cv_.notify_one();
  if (arm_monitor) monitor_cv_.notify_one();
}

void FanOutHub::start_worker_locked() {
  for (auto it = workers_.begin(); it != workers_.end();) {
    if (it->exited) {
      it->thread.join();  // it has released pool_mu_ and is ending
      it = workers_.erase(it);
    } else {
      ++it;
    }
  }
  Worker& worker = workers_.emplace_back();
  worker.thread = std::thread([this, &worker] { worker_loop(worker); });
  ++live_workers_;
  if (metrics_.delivery_workers != nullptr)
    metrics_.delivery_workers->set(static_cast<std::int64_t>(live_workers_));
}

void FanOutHub::worker_loop(Worker& self) {
  std::shared_ptr<Subscription> sub;
  bool requeue = false;
  for (;;) {
    {
      std::unique_lock lock(pool_mu_);
      self.in_turn = false;
      if (requeue) run_queue_.push_back(std::move(sub));
      while (run_queue_.empty() && !pool_stopping_) {
        if (live_workers_ > pool_size_) {
          // A handoff worker with nothing to do: the pool shrinks back.
          --live_workers_;
          if (metrics_.delivery_workers != nullptr)
            metrics_.delivery_workers->set(static_cast<std::int64_t>(live_workers_));
          self.exited = true;
          return;
        }
        ++idle_workers_;
        work_cv_.wait(lock);
        --idle_workers_;
        if (wakes_pending_ > 0) --wakes_pending_;
      }
      if (pool_stopping_) return;
      sub = std::move(run_queue_.front());
      run_queue_.pop_front();
      self.in_turn = true;
      self.turn_start = std::chrono::steady_clock::now();
    }
    requeue = run_turn(*sub);
    if (!requeue) sub.reset();
  }
}

bool FanOutHub::run_turn(Subscription& sub) {
  using Delivery = Subscription::Delivery;
  {
    std::lock_guard lock(sub.queue_mu_);
    if (!sub.attached_) {
      sub.delivery_ = Delivery::kIdle;
      return false;
    }
    sub.delivery_ = Delivery::kRunning;
  }
  // handler_ is only replaced while the subscription is detached and no
  // turn runs, so it is read here without the lock.
  for (std::size_t n = 0; n < kTurnItems; ++n) {
    HubItem item;
    {
      std::lock_guard lock(sub.queue_mu_);
      if (!sub.attached_ || sub.queue_.empty()) break;
      item = std::move(sub.queue_.front());
      sub.queue_.pop_front();
      if (item.kind == HubItem::Kind::kDemoted) sub.catch_up_queued_ = false;
    }
    if (sub.handler_(item) == Turn::kPark) {
      std::lock_guard lock(sub.queue_mu_);
      if (!sub.resume_pending_) {
        sub.delivery_ = Delivery::kParked;
        sub.turn_done_.notify_all();
        return false;
      }
      sub.resume_pending_ = false;  // resumed before it was parked
    }
  }
  std::lock_guard lock(sub.queue_mu_);
  const bool again = sub.attached_ && !sub.queue_.empty();
  sub.delivery_ = again ? Delivery::kQueued : Delivery::kIdle;
  if (!sub.attached_) sub.turn_done_.notify_all();
  return again;
}

void FanOutHub::handoff_monitor() {
  std::unique_lock lock(pool_mu_);
  while (!pool_stopping_) {
    if (run_queue_.empty() || idle_workers_ > wakes_pending_) {
      // Nothing waits, or an idle worker is free to take it.
      monitor_armed_ = false;
      monitor_cv_.wait(lock);
      continue;
    }
    bool all_stuck = true;
    auto youngest_turn = std::chrono::steady_clock::time_point::min();
    for (const Worker& worker : workers_) {
      if (worker.exited) continue;
      if (!worker.in_turn) {
        all_stuck = false;  // between turns: it takes queued work next
        break;
      }
      youngest_turn = std::max(youngest_turn, worker.turn_start);
    }
    const auto now = std::chrono::steady_clock::now();
    if (all_stuck && now - youngest_turn >= kHandoffAfter) {
      start_worker_locked();
      if (metrics_.delivery_handoffs != nullptr) metrics_.delivery_handoffs->inc();
      continue;
    }
    monitor_cv_.wait_until(lock, (all_stuck ? youngest_turn : now) + kHandoffAfter);
  }
}

void FanOutHub::forward_acks_locked() {
  VectorCursor min_cursor = heads_;
  bool any = false;
  for (const auto& sub : subs_) {
    if (!sub || sub->state_ == FlowState::kEvicted) continue;
    any = true;
    // A live subscriber whose rules match nothing never appears in a
    // delivery set, so its acked_ cursor would pin the min forever at
    // its subscribe-time watermark. A full credit window means every
    // event ever queued for it has been processed AND acknowledged —
    // pushes debit the window under mu_ and only acks replenish it, so
    // full credits imply an empty queue — and everything at or below
    // heads_ is therefore either acked or failed its rules: the
    // effective watermark IS heads_ and it contributes nothing to the
    // min. Demoted subscribers keep their real cursor — they still
    // need the store for catch-up replay.
    if (sub->state_ == FlowState::kLive &&
        sub->credits_ >= static_cast<std::int64_t>(options_.credit_window))
      continue;
    min_cursor.ensure(sub->acked_.size());
    for (std::size_t k = 0; k < min_cursor.size(); ++k)
      min_cursor.last_ids[k] = std::min(min_cursor.last_ids[k], sub->acked_.at(k));
  }
  if (!any) return;
  bool advanced = false;
  for (std::size_t k = 0; k < min_cursor.size(); ++k) {
    if (min_cursor.at(k) > forwarded_.at(k)) {
      advanced = true;
      break;
    }
  }
  if (!advanced) return;
  for (std::size_t k = 0; k < min_cursor.size(); ++k)
    forwarded_.advance(k, min_cursor.at(k));
  aggregator_.acknowledge(forwarded_);
}

std::size_t FanOutHub::shard_of_topic(std::string_view topic) const {
  // Shard outputs publish under "<base>/shard<k>" when sharded, or the
  // bare base topic with one shard.
  if (aggregator_.shard_count() == 1) return 0;
  const std::size_t pos = topic.rfind("/shard");
  if (pos == std::string_view::npos) return 0;
  std::size_t shard = 0;
  for (char c : topic.substr(pos + 6)) {
    if (c < '0' || c > '9') return 0;
    shard = shard * 10 + static_cast<std::size_t>(c - '0');
  }
  return shard < aggregator_.shard_count() ? shard : 0;
}

void FanOutHub::update_gauges_locked() {
  if (metrics_.live != nullptr) {
    metrics_.live->set(static_cast<std::int64_t>(live_count_));
    metrics_.demoted->set(static_cast<std::int64_t>(demoted_count_));
  }
}

common::EventId FanOutHub::head_of(std::size_t shard) const {
  std::lock_guard lock(mu_);
  return heads_.at(shard);
}

void FanOutHub::fill_gap(std::size_t shard) {
  std::lock_guard lock(fill_mu_);
  fill_locked(shard, aggregator_.shard(shard).durable_id());
}

void FanOutHub::fill_locked(std::size_t shard, common::EventId up_to) {
  for (common::EventId head = head_of(shard); head < up_to;) {
    auto events = aggregator_.shard(shard).events_since(
        head, static_cast<std::size_t>(std::min(up_to - head, kFillPage)));
    if (!events || events.value().empty()) {
      FSMON_WARN("fanout", "shard ", shard, " ids ", head + 1, "..", up_to,
                 " never reached the hub and cannot be read from its store",
                 events ? std::string() : ": " + events.status().to_string());
      return;
    }
    head = events.value().back().id;
    if (metrics_.gap_filled != nullptr) metrics_.gap_filled->inc(events.value().size());
    auto batch = std::make_shared<core::EventBatch>();
    batch->events = std::move(events.value());
    deliver_locked(shard, std::move(batch));
  }
}

void FanOutHub::deliver_locked(std::size_t shard,
                               std::shared_ptr<const core::EventBatch> batch) {
  {
    // Publish the batch as in-flight so subscribe() can order itself
    // against it (see the pending_* comment in the header).
    std::lock_guard lock(mu_);
    pending_shard_ = shard;
    pending_last_id_ = batch->events.back().id;
    pending_valid_ = true;
  }
  // The index has its own lock; matching runs outside the hub mutex so
  // subscribe/ack calls are never blocked behind a large batch.
  index_.match_batch(batch->events, delivery_);
  // Schedule in subscription order, so the earliest subscriptions
  // (a catch-all is usually first) reach a worker first.
  touched_.assign(delivery_.touched().begin(), delivery_.touched().end());
  std::sort(touched_.begin(), touched_.end());

  {
    std::lock_guard lock(mu_);
    pending_valid_ = false;
    heads_.advance(shard, batch->events.back().id);
    for (SubscriberId id : touched_) {
      if (id >= subs_.size() || !subs_[id]) continue;
      const std::shared_ptr<Subscription>& sub = subs_[id];
      if (sub->state_ != FlowState::kLive) continue;
      if (sub->credits_ <= 0) {
        // The window went negative on an earlier frame (frames are
        // delivered whole); this one is not delivered — the catch-up
        // replay will cover it.
        demote_locked(sub, ready_);
        continue;
      }
      const auto indices = delivery_.indices_for(id);
      HubItem item;
      item.batch = batch;
      item.indices.assign(indices.begin(), indices.end());
      item.shard = shard;
      sub->credits_ -= static_cast<std::int64_t>(indices.size());
      push_item(sub, std::move(item), ready_);
    }
    evict_overdue_locked(ready_);
    // Amortized min-ack forwarding: acknowledge() already forwards on
    // every consumer ack, but when no subscription's rules match (so no
    // consumer ever acks) retention would still grow with heads_. The
    // periodic forward lets idle subscribers' effective cursors (see
    // forward_acks_locked) release the stores.
    if (++frames_since_forward_ >= kIdleForwardInterval) {
      frames_since_forward_ = 0;
      forward_acks_locked();
    }
  }
  schedule(ready_);
}

void FanOutHub::pump(std::stop_token stop) {
  while (!stop.stop_requested()) {
    auto frame = receiver_->recv();
    if (!frame) break;
    auto decoded = core::decode_batch(frame->payload.bytes());
    if (!decoded) {
      FSMON_WARN("fanout", "corrupt batch frame: ", decoded.status().to_string());
      continue;
    }
    std::vector<core::StdEvent>& events = decoded.value().events;
    const std::size_t shard = shard_of_topic(frame->topic);
    std::lock_guard lock(fill_mu_);
    // Ids at or below the head were delivered already: a gap fill read
    // them from the store while this frame was in flight.
    const common::EventId head = head_of(shard);
    events.erase(events.begin(),
                 std::find_if(events.begin(), events.end(),
                              [head](const core::StdEvent& e) { return e.id > head; }));
    if (events.empty()) continue;
    if (events.front().id > head + 1) fill_locked(shard, events.front().id - 1);
    deliver_locked(shard,
                   std::make_shared<const core::EventBatch>(std::move(decoded.value())));
    frames_.fetch_add(1);
  }
}

}  // namespace fsmon::scalable
