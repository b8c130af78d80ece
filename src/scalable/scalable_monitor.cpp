#include "src/scalable/scalable_monitor.hpp"

#include <optional>

namespace fsmon::scalable {

using common::Status;

namespace {

/// Collector index from an event source "lustre:MDT<i>"; nullopt for
/// foreign sources (other mounts ride their own ack channels).
std::optional<std::uint32_t> mdt_of_source(std::string_view source) {
  constexpr std::string_view kPrefix = "lustre:MDT";
  if (source.size() <= kPrefix.size() || source.substr(0, kPrefix.size()) != kPrefix)
    return std::nullopt;
  std::uint32_t mdt = 0;
  for (char c : source.substr(kPrefix.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    mdt = mdt * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return mdt;
}

}  // namespace

ScalableMonitor::ScalableMonitor(lustre::LustreFs& fs, ScalableMonitorOptions options,
                                 common::Clock& clock)
    : fs_(fs), options_(std::move(options)), clock_(clock) {
  ShardedAggregatorOptions sharded_options;
  sharded_options.shards = options_.shards;
  sharded_options.transport = options_.transport;
  sharded_options.aggregator = options_.aggregator;
  sharded_ = std::make_unique<ShardedAggregator>(bus_, "aggregator",
                                                 std::move(sharded_options), clock_);
  for (std::uint32_t i = 0; i < fs_.mdt_count(); ++i) {
    // Collectors publish through the shard router (which owns the
    // per-shard sender connections); the per-collector sender lives on
    // the tier's transport but carries no direct receivers.
    auto sender = sharded_->transport().make_sender(
        options_.collector.topic_prefix + "collector" + std::to_string(i));
    collectors_.push_back(
        std::make_unique<Collector>(fs_, i, std::move(sender), options_.collector, clock_));
    collectors_.back()->set_router(&sharded_->router());
    fs_.mgs().register_service(
        {"collector-" + std::to_string(i), "collector", "msgq://collector" + std::to_string(i)});
  }
  fs_.mgs().register_service({"aggregator", "aggregator", "msgq://aggregator"});
  // Durable-custody acks flow back here: demux the event source
  // ("lustre:MDT<i>") to the owning collector, which clears its
  // changelog up to the acked record index.
  sharded_->set_ack_callback([this](std::string_view source, std::uint64_t index) {
    const auto mdt = mdt_of_source(source);
    if (mdt && *mdt < collectors_.size()) collectors_[*mdt]->on_persist_ack(index);
  });
  // A gap-refused frame means the collector advanced past frames the
  // shard never received (lost across a crash/reconnect window): rewind
  // it to the cleared index so the unacked suffix is re-published —
  // without this back-channel the gap would wedge the source forever.
  sharded_->set_nack_callback([this](std::string_view source, std::uint64_t) {
    const auto mdt = mdt_of_source(source);
    if (mdt && *mdt < collectors_.size()) collectors_[*mdt]->rewind_to_cleared();
  });
  FlowControlOptions flow = options_.flow;
  flow.metrics = options_.aggregator.metrics;
  hub_ = std::make_unique<FanOutHub>(*sharded_, flow);
}

Status ScalableMonitor::start() {
  if (running_) return Status::ok();
  if (auto s = sharded_->start(); !s.is_ok()) return s;
  if (auto s = hub_->start(); !s.is_ok()) return s;
  for (auto& collector : collectors_) {
    if (auto s = collector->start(); !s.is_ok()) return s;
  }
  running_ = true;
  return Status::ok();
}

void ScalableMonitor::stop() {
  if (!running_) return;
  for (auto& collector : collectors_) collector->stop();
  // The shards drain their inboxes into the hub before it closes.
  sharded_->stop();
  hub_->stop();
  running_ = false;
}

std::unique_ptr<Consumer> ScalableMonitor::make_consumer(std::string name,
                                                         ConsumerOptions options,
                                                         Consumer::EventCallback callback) {
  if (options.hub == nullptr) options.hub = hub_.get();
  auto consumer = std::make_unique<Consumer>(*sharded_, std::move(name), std::move(options),
                                             std::move(callback));
  if (running_) consumer->start();
  return consumer;
}

std::unique_ptr<Consumer> ScalableMonitor::make_consumer(std::string name,
                                                         ConsumerOptions options,
                                                         Consumer::BatchCallback callback) {
  if (options.hub == nullptr) options.hub = hub_.get();
  auto consumer = std::make_unique<Consumer>(*sharded_, std::move(name), std::move(options),
                                             std::move(callback));
  if (running_) consumer->start();
  return consumer;
}

std::size_t ScalableMonitor::drain_collectors_once() {
  std::size_t total = 0;
  for (auto& collector : collectors_) total += collector->drain_once();
  // Pump each aggregator shard synchronously so persistence acks are
  // generated, then apply the resulting changelog clears — the
  // deterministic equivalent of one full publish -> persist -> ack ->
  // clear cycle.
  if (!running_) {
    for (std::size_t k = 0; k < sharded_->shard_count(); ++k)
      sharded_->shard(k).drain_once();
  }
  for (auto& collector : collectors_) collector->apply_acked_clear();
  return total;
}

common::Status ScalableMonitor::restart_aggregator() {
  // Ordering matters twice here. First finish the fail-stop teardown: a
  // self-crashed shard exits its loops with the inbox still open, and a
  // collector that rewound now would replay into that doomed inbox and
  // lose the replay with the discarded backlog when it closes. Then set
  // the rewind flags BEFORE any inbox reopens: collectors suppress
  // publishing the moment the flag is set, so no stale read-ahead frame
  // can slip into a recovered shard and open a gap above its rebuilt
  // watermark.
  for (std::size_t k = 0; k < sharded_->shard_count(); ++k) {
    if (sharded_->shard(k).crashed()) sharded_->shard(k).crash();
  }
  for (auto& collector : collectors_) collector->rewind_to_cleared();
  for (std::size_t k = 0; k < sharded_->shard_count(); ++k) {
    if (auto s = sharded_->shard(k).restart(); !s.is_ok()) return s;
    hub_->fill_gap(k);
  }
  return Status::ok();
}

common::Status ScalableMonitor::restart_aggregator_shard(std::size_t k) {
  // Same two-phase ordering as restart_aggregator(), scoped to one
  // shard: finish its teardown, rewind exactly the collectors whose
  // source the map assigns to this shard (their unpersisted frames died
  // with it), then recover. Collectors owned by other shards keep
  // publishing throughout.
  Aggregator& shard = sharded_->shard(k);
  if (shard.crashed()) shard.crash();
  for (std::size_t i = 0; i < collectors_.size(); ++i) {
    if (sharded_->map().shard_of(collector_source(i)) == k)
      collectors_[i]->rewind_to_cleared();
  }
  if (auto s = shard.restart(); !s.is_ok()) return s;
  // A torn group's durable prefix was never fanned out, and no frame may
  // follow it to open the gap at the hub.
  hub_->fill_gap(k);
  return Status::ok();
}

std::uint64_t ScalableMonitor::total_records_processed() const {
  std::uint64_t total = 0;
  for (const auto& collector : collectors_) total += collector->records_processed();
  return total;
}

ScalableDsi::ScalableDsi(lustre::LustreFs& fs, ScalableMonitorOptions options,
                         common::Clock& clock)
    : monitor_(fs, std::move(options), clock) {}

Status ScalableDsi::start(EventCallback callback) {
  if (running_) return Status::ok();
  consumer_ = monitor_.make_consumer(
      "dsi-consumer", ConsumerOptions{},
      [callback = std::move(callback)](const core::StdEvent& event) { callback(event); });
  if (auto s = monitor_.start(); !s.is_ok()) return s;
  if (auto s = consumer_->start(); !s.is_ok()) return s;
  running_ = true;
  return Status::ok();
}

void ScalableDsi::stop() {
  if (!running_) return;
  monitor_.stop();
  if (consumer_ != nullptr) consumer_->stop();
  running_ = false;
}

void register_lustre_dsi(core::DsiRegistry& registry, lustre::LustreFs& fs,
                         common::Clock& clock, ScalableMonitorOptions options) {
  registry.register_dsi(
      "lustre",
      [&fs, &clock, options](const core::StorageDescriptor& descriptor)
          -> common::Result<std::unique_ptr<core::DsiBase>> {
        ScalableMonitorOptions opts = options;
        opts.collector.cache_size = static_cast<std::size_t>(
            descriptor.params.get_int("lustre.cache_size",
                                      static_cast<std::int64_t>(opts.collector.cache_size)));
        return common::Result<std::unique_ptr<core::DsiBase>>(
            std::make_unique<ScalableDsi>(fs, std::move(opts), clock));
      });
}

}  // namespace fsmon::scalable
