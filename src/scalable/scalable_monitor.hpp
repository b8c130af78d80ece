// ScalableMonitor: the assembled scalable Lustre DSI (paper Figure 4).
//
// Wires one Collector per MDS, the Aggregator on the MGS, the FanOutHub
// on its output, and any number of Consumers riding the hub. Also
// provides ScalableDsi, the core::DsiBase adapter that lets the
// FsMonitor facade treat an entire Lustre deployment as just another
// storage backend (scheme "lustre").
#pragma once

#include <memory>
#include <vector>

#include "src/core/dsi.hpp"
#include "src/scalable/collector.hpp"
#include "src/scalable/consumer.hpp"
#include "src/scalable/sharded_aggregator.hpp"

namespace fsmon::scalable {

struct ScalableMonitorOptions {
  CollectorOptions collector;
  AggregatorOptions aggregator;
  /// Aggregator shard count. 1 (default) is the historic single
  /// aggregator, byte-for-byte; N partitions the tier by event source
  /// through the ShardRouter (see docs/ARCHITECTURE.md).
  std::size_t shards = 1;
  /// Transport every pipeline hop rides on (collector senders, shard
  /// inboxes/outputs, the hub's receiver). Null (default) = in-process
  /// over the monitor's bus. Must outlive the monitor.
  transport::Transport* transport = nullptr;
  /// Ignored: every monitor fans out through its FanOutHub. Kept so
  /// existing callers still compile.
  bool fanout_hub = true;
  /// Flow-control tuning for the hub (the metrics field is overridden by
  /// the aggregator's registry).
  FlowControlOptions flow;
};

class ScalableMonitor {
 public:
  ScalableMonitor(lustre::LustreFs& fs, ScalableMonitorOptions options,
                  common::Clock& clock);

  common::Status start();
  void stop();

  /// Create (and start, if the monitor is running) a consumer riding
  /// this monitor's hub.
  std::unique_ptr<Consumer> make_consumer(std::string name, ConsumerOptions options,
                                          Consumer::EventCallback callback);
  /// Batch-aware variant: the callback receives each matching batch once.
  std::unique_ptr<Consumer> make_consumer(std::string name, ConsumerOptions options,
                                          Consumer::BatchCallback callback);

  /// Shard 0 — with the default single shard, exactly the historic
  /// aggregator accessor. Sharded callers use sharded().
  Aggregator& aggregator() { return sharded_->shard(0); }
  ShardedAggregator& sharded() { return *sharded_; }
  /// The shared fan-out hub every consumer rides.
  FanOutHub& hub() { return *hub_; }
  Collector& collector(std::size_t i) { return *collectors_.at(i); }
  std::size_t collector_count() const { return collectors_.size(); }
  msgq::Bus& bus() { return bus_; }

  /// Synchronously pump every collector once (deterministic tests):
  /// collectors publish, the aggregator is drained (when not running) so
  /// acks flow, then the acked changelog clears are applied.
  std::size_t drain_collectors_once();

  std::uint64_t total_records_processed() const;

  /// Crash-recovery harness: fail-stop / restart individual stages.
  void crash_collector(std::size_t i) { collectors_.at(i)->crash(); }
  common::Status restart_collector(std::size_t i) {
    return collectors_.at(i)->restart();
  }
  /// Crash every aggregator shard (the whole tier fails together).
  void crash_aggregator() {
    for (std::size_t k = 0; k < sharded_->shard_count(); ++k) sharded_->shard(k).crash();
  }
  /// Restart the aggregator tier and rewind every collector to its
  /// cleared index: frames buffered in the dead shards are gone, so
  /// unacked records must be re-published (the dedup watermark absorbs
  /// overlap). Then the hub delivers each shard's durable records it has
  /// not seen (FanOutHub::fill_gap).
  common::Status restart_aggregator();

  /// Fail-stop / restart a single shard. Restart rewinds only the
  /// collectors whose source the shard map assigns to that shard — the
  /// other shards (and their collectors) keep flowing undisturbed — and
  /// fills the hub from the shard's store, as restart_aggregator() does.
  void crash_aggregator_shard(std::size_t k) { sharded_->shard(k).crash(); }
  common::Status restart_aggregator_shard(std::size_t k);

 private:
  /// Source string collector i publishes under (the shard-map key).
  static std::string collector_source(std::size_t i) {
    return "lustre:MDT" + std::to_string(i);
  }

  lustre::LustreFs& fs_;
  ScalableMonitorOptions options_;
  common::Clock& clock_;
  msgq::Bus bus_;
  std::unique_ptr<ShardedAggregator> sharded_;
  std::unique_ptr<FanOutHub> hub_;
  std::vector<std::unique_ptr<Collector>> collectors_;
  bool running_ = false;
};

/// core::DsiBase adapter: monitors the whole Lustre store and forwards
/// every aggregated event to the FSMonitor callback via an internal
/// consumer.
class ScalableDsi final : public core::DsiBase {
 public:
  ScalableDsi(lustre::LustreFs& fs, ScalableMonitorOptions options, common::Clock& clock);

  std::string name() const override { return "lustre"; }
  common::Status start(EventCallback callback) override;
  void stop() override;
  bool running() const override { return running_; }

  ScalableMonitor& monitor() { return monitor_; }

 private:
  ScalableMonitor monitor_;
  std::unique_ptr<Consumer> consumer_;
  bool running_ = false;
};

/// Register the "lustre" scheme against a specific simulated deployment.
void register_lustre_dsi(core::DsiRegistry& registry, lustre::LustreFs& fs,
                         common::Clock& clock,
                         ScalableMonitorOptions options = {});

}  // namespace fsmon::scalable
