// Every registered metric name must be documented in
// docs/OBSERVABILITY.md. The test exercises the real threaded pipeline
// and the simulator so that every instrumentation site registers, then
// greps the doc for each name.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/federation/federated_monitor.hpp"
#include "src/localfs/inotify_dsi.hpp"
#include "src/localfs/memfs.hpp"
#include "src/localfs/sim_dsi.hpp"
#include "src/lustre/filesystem.hpp"
#include "src/nsindex/index_consumer.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/scalable/sim_driver.hpp"

#ifndef FSMON_SOURCE_DIR
#error "FSMON_SOURCE_DIR must be defined by the build (tests/CMakeLists.txt)"
#endif

namespace fsmon {
namespace {

std::string read_doc() {
  const std::filesystem::path path =
      std::filesystem::path(FSMON_SOURCE_DIR) / "docs" / "OBSERVABILITY.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Register every instrument the codebase knows how to create.
void exercise_all_stages(obs::MetricsRegistry& registry) {
  // Threaded pipeline: collectors -> aggregator (WAL store) -> consumer.
  auto& clock = common::RealClock::instance();
  lustre::LustreFsOptions fs_options;
  fs_options.mdt_count = 1;
  lustre::LustreFs fs(fs_options, clock);
  fs.attach_metrics(registry);

  const auto store_dir =
      std::filesystem::temp_directory_path() / "fsmon_doc_coverage_store";
  std::filesystem::remove_all(store_dir);
  scalable::ScalableMonitorOptions options;
  options.collector.metrics = &registry;
  options.aggregator.metrics = &registry;
  eventstore::EventStoreOptions store;
  store.directory = store_dir;
  store.flush_each_append = true;
  options.aggregator.store = store;
  // The monitor's hub registers the subscription-index (subidx.*) and
  // flow-control (flow.*) instruments, plus aggregator.fanout_receivers.
  scalable::ScalableMonitor monitor(fs, options, clock);
  scalable::ConsumerOptions consumer_options;
  consumer_options.metrics = &registry;
  auto consumer =
      monitor.make_consumer("doc", consumer_options, [](const core::StdEvent&) {});

  fs.mkdir("/doc");
  fs.create("/doc/f");
  monitor.drain_collectors_once();

  // Sharded tier: router.* plus the shard=<k>-labelled per-shard
  // aggregator/store/wal instruments.
  const auto sharded_dir =
      std::filesystem::temp_directory_path() / "fsmon_doc_coverage_shards";
  std::filesystem::remove_all(sharded_dir);
  {
    lustre::LustreFsOptions sharded_fs_options;
    sharded_fs_options.mdt_count = 2;
    lustre::LustreFs sharded_fs(sharded_fs_options, clock);
    scalable::ScalableMonitorOptions sharded_options = options;
    sharded_options.shards = 2;
    sharded_options.aggregator.store->directory = sharded_dir;
    scalable::ScalableMonitor sharded_monitor(sharded_fs, sharded_options, clock);
    sharded_fs.mkdir("/doc");
    sharded_fs.create("/doc/f");
    sharded_monitor.drain_collectors_once();
  }
  std::filesystem::remove_all(sharded_dir);

  // Namespace index (nsidx.*): constructing the consumer registers the
  // applier, snapshot-store, and recovery instruments.
  nsindex::IndexConsumerOptions idx_options;
  idx_options.snapshot_dir = store_dir / "nsidx";
  idx_options.metrics = &registry;
  nsindex::IndexConsumer idx_consumer(monitor.hub(), monitor.sharded(),
                                      "doc-nsidx", std::move(idx_options));

  // Simulator-only instruments (sim.*, consumer.delivery_latency_us, ...).
  scalable::SimConfig sim_config;
  sim_config.profile = lustre::TestbedProfile::iota();
  sim_config.duration = std::chrono::milliseconds(50);
  sim_config.metrics = &registry;
  scalable::run_pipeline_sim(sim_config);

  // Federation tier (mount.events / mount.stale_events / mount.active):
  // mount a sim DSI, deliver one event, then unmount so the stale path
  // registers too.
  {
    localfs::MemFs memfs;  // declared first: must outlive the monitor
    federation::FederatedMonitor fed({&registry});
    auto mount_id = fed.mount(
        "doc", "/mnt/doc", std::make_unique<localfs::SimInotifyDsi>(memfs, clock));
    if (mount_id && fed.start().is_ok()) {
      memfs.create("/f");
      fed.unmount(mount_id.value());
    }
    fed.stop();
  }

  // Real inotify (inotify.queue_overflows), where the kernel offers it.
  if (localfs::InotifyDsi::available()) {
    const auto watch_dir =
        std::filesystem::temp_directory_path() / "fsmon_doc_coverage_inotify";
    std::filesystem::create_directories(watch_dir);
    localfs::InotifyDsiOptions inotify_options;
    inotify_options.root = watch_dir.string();
    inotify_options.metrics = &registry;
    localfs::InotifyDsi inotify_dsi(std::move(inotify_options));
    if (inotify_dsi.start([](const core::StdEvent&) {}).is_ok()) inotify_dsi.stop();
    std::filesystem::remove_all(watch_dir);
  }

  monitor.stop();
  std::filesystem::remove_all(store_dir);
}

TEST(DocCoverageTest, EveryRegisteredMetricIsDocumented) {
  obs::MetricsRegistry registry;
  exercise_all_stages(registry);
  ASSERT_GT(registry.instrument_count(), 30u)
      << "pipeline exercise registered suspiciously few instruments";

  const std::string doc = read_doc();
  std::set<std::string> undocumented;
  for (const auto& sample : registry.snapshot().samples) {
    if (doc.find("`" + sample.name + "`") == std::string::npos)
      undocumented.insert(sample.name);
  }
  EXPECT_TRUE(undocumented.empty())
      << "metrics missing from docs/OBSERVABILITY.md: " << [&] {
           std::string joined;
           for (const auto& name : undocumented) joined += name + " ";
           return joined;
         }();
}

}  // namespace
}  // namespace fsmon
