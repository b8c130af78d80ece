// Quickstart: monitor a directory with FSMonitor and print standardized
// events.
//
// Usage:
//   quickstart [path] [dialect=inotify|kqueue|fsevents|filesystemwatcher]
//              [seconds=N]
//   quickstart pipeline [metrics.path=FILE] [metrics.format=json|prometheus]
//   quickstart query
//
// With a real directory path (default: a fresh temp directory), the
// inotify DSI is auto-selected and a small demo workload runs against
// the directory; on hosts without inotify the example falls back to the
// simulated in-memory backend so it always produces output.
//
// `quickstart pipeline` instead assembles the scalable Lustre pipeline
// (collectors -> aggregator with WAL-backed store -> consumer), drives a
// metadata workload through it, and writes a metrics snapshot
// (quickstart_metrics.json by default) covering every stage.
//
// `quickstart query` attaches a namespace IndexConsumer to the same
// pipeline, runs a workload with renames, and answers point-in-time
// queries (lookup / ls / hot directories / rename chains) from the
// materialized index — no file system scan involved.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "src/common/config.hpp"
#include "src/core/monitor.hpp"
#include "src/localfs/inotify_dsi.hpp"
#include "src/localfs/sim_dsi.hpp"
#include "src/nsindex/index_consumer.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/workloads/scripts.hpp"

using namespace fsmon;

namespace {

int run_pipeline(common::Config& config) {
  auto& clock = common::RealClock::instance();
  lustre::LustreFsOptions fs_options;
  fs_options.mdt_count = 2;
  lustre::LustreFs fs(fs_options, clock);

  obs::MetricsRegistry registry;
  fs.attach_metrics(registry);

  const auto store_dir = std::filesystem::temp_directory_path() / "fsmon_quickstart_store";
  std::filesystem::remove_all(store_dir);

  scalable::ScalableMonitorOptions options;
  options.collector.metrics = &registry;
  options.aggregator.metrics = &registry;
  eventstore::EventStoreOptions store;
  store.directory = store_dir;
  store.flush_each_append = true;  // pay the fsync so wal.* latency is real
  options.aggregator.store = store;
  scalable::ScalableMonitor monitor(fs, options, clock);

  // Exporter selected via common::Config (metrics.path / metrics.format /
  // metrics.interval_ms); default to a JSON file in the working directory.
  if (config.get_or("metrics.path", "").empty())
    config.set("metrics.path", "quickstart_metrics.json");
  auto exporter = obs::exporter_from_config(registry, config);

  std::atomic<std::uint64_t> delivered{0};
  scalable::ConsumerOptions consumer_options;
  consumer_options.metrics = &registry;
  consumer_options.ack_interval = 16;
  auto consumer = monitor.make_consumer("quickstart", consumer_options,
                                        [&](const core::StdEvent&) { ++delivered; });
  if (auto s = monitor.start(); !s.is_ok()) {
    std::fprintf(stderr, "failed to start pipeline: %s\n", s.to_string().c_str());
    return 1;
  }
  if (auto s = consumer->start(); !s.is_ok()) {
    std::fprintf(stderr, "failed to start consumer: %s\n", s.to_string().c_str());
    return 1;
  }
  if (exporter != nullptr) {
    if (auto s = exporter->start(); !s.is_ok()) {
      std::fprintf(stderr, "failed to start metrics exporter: %s\n",
                   s.to_string().c_str());
      return 1;
    }
  }
  std::printf("# scalable pipeline: %zu collectors -> aggregator (WAL store) -> consumer\n",
              monitor.collector_count());

  // Metadata workload: create/modify/delete across directories so both
  // MDTs see traffic and the fid2path cache gets hits and misses.
  fs.mkdir("/demo");
  for (int d = 0; d < 4; ++d) fs.mkdir("/demo/d" + std::to_string(d));
  for (int i = 0; i < 400; ++i) {
    const std::string path =
        "/demo/d" + std::to_string(i % 4) + "/f" + std::to_string(i);
    fs.create(path);
    fs.modify(path, 4096);
    if (i % 2 == 0) fs.unlink(path);
  }

  // Wait for the pipeline to drain: the aggregator head stops advancing
  // and the consumer has seen it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto head = monitor.aggregator().last_event_id();
    if (head > 0 && consumer->last_seen_id() >= head) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (monitor.aggregator().last_event_id() == head) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  consumer->stop();
  monitor.stop();
  if (exporter != nullptr) exporter->stop();  // writes the final snapshot

  std::printf("# delivered %llu events; metrics snapshot: %s\n",
              static_cast<unsigned long long>(delivered.load()),
              config.get_or("metrics.path", "").c_str());
  std::filesystem::remove_all(store_dir);
  return delivered.load() > 0 ? 0 : 1;
}

int run_query() {
  auto& clock = common::RealClock::instance();
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);

  const auto root = std::filesystem::temp_directory_path() / "fsmon_quickstart_query";
  std::filesystem::remove_all(root);
  scalable::ScalableMonitorOptions options;
  eventstore::EventStoreOptions store;
  store.directory = root / "store";
  store.flush_each_append = true;
  options.aggregator.store = store;
  scalable::ScalableMonitor monitor(fs, options, clock);
  if (auto s = monitor.start(); !s.is_ok()) {
    std::fprintf(stderr, "failed to start pipeline: %s\n", s.to_string().c_str());
    return 1;
  }

  nsindex::IndexConsumerOptions index_options;
  index_options.snapshot_dir = root / "snaps";
  nsindex::IndexConsumer consumer(monitor.hub(), monitor.sharded(), "quickstart",
                                  std::move(index_options));
  if (auto s = consumer.start(); !s.is_ok()) {
    std::fprintf(stderr, "failed to start index consumer: %s\n",
                 s.to_string().c_str());
    return 1;
  }

  // Workload with renames so the chain queries have something to say.
  fs.mkdir("/proj");
  fs.mkdir("/proj/run0");
  fs.mkdir("/scratch");
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/proj/run0/out" + std::to_string(i) + ".dat";
    fs.create(path);
    fs.modify(path, 1 << 20);
  }
  // Let the index catch up between the renames: fid2path resolves paths
  // at processing time, so keeping the collector close to the workload
  // keeps the surfaced paths point-in-time exact (the paper's §V-B lag
  // discussion).
  const auto wait_applied = [&](std::uint64_t expected) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (consumer.index().applied_seq() < expected &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return consumer.index().applied_seq() >= expected;
  };
  wait_applied(3 + 8 * 2);
  fs.rename("/proj/run0/out0.dat", "/proj/run0/final.dat");  // two events
  wait_applied(3 + 8 * 2 + 2);
  fs.rename("/proj/run0", "/proj/run0.done");  // directory rename: subtree moves
  const std::uint64_t expected = 3 + 8 * 2 + 2 * 2;
  wait_applied(expected);

  const auto& index = consumer.index();
  std::printf("# namespace index: %zu nodes after %llu events\n",
              index.node_count(),
              static_cast<unsigned long long>(index.applied_seq()));
  if (auto listing = index.list_dir("/proj/run0.done"); listing.is_ok()) {
    std::printf("# ls /proj/run0.done:\n");
    for (const auto& entry : listing.value())
      std::printf("  %s%s\n", entry.name.c_str(), entry.is_dir ? "/" : "");
  }
  if (auto chain = index.resolve_rename_chain("/proj/run0.done/final.dat");
      chain.is_ok()) {
    std::printf("# rename history of /proj/run0.done/final.dat:\n");
    for (const auto& hop : chain.value().hops)
      std::printf("  was %s (until event %llu)\n", hop.old_path.c_str(),
                  static_cast<unsigned long long>(hop.event_id));
  }
  std::printf("# hottest directories:\n");
  for (const auto& dir : index.activity_topk(3))
    std::printf("  %6llu  %s\n", static_cast<unsigned long long>(dir.events),
                dir.path.c_str());

  const bool ok = index.applied_seq() >= expected;
  consumer.stop();
  monitor.stop();
  std::filesystem::remove_all(root);
  return ok ? 0 : 1;
}

int run_real(const std::string& path, core::Dialect dialect, int seconds) {
  core::register_builtin_dsis();
  core::MonitorOptions options;
  options.storage.root = path;  // scheme empty: auto-detect picks inotify
  options.output_dialect = dialect;

  core::FsMonitor monitor(options);
  std::mutex mu;
  monitor.subscribe({}, [&](const std::vector<core::StdEvent>& batch) {
    std::lock_guard lock(mu);
    for (const auto& event : batch)
      std::printf("%s\n", monitor.render_line(event).c_str());
  });
  if (auto status = monitor.start(); !status.is_ok()) {
    std::fprintf(stderr, "failed to start monitor: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("# monitoring %s via %s DSI (%d s)...\n", path.c_str(),
              monitor.dsi_name().c_str(), seconds);

  // Demo workload: the paper's Evaluate_Output_Script against the tree.
  std::filesystem::path base(path);
  {
    std::ofstream(base / "hello.txt") << "hi";
  }
  std::filesystem::rename(base / "hello.txt", base / "hi.txt");
  std::filesystem::create_directory(base / "okdir");
  std::filesystem::rename(base / "hi.txt", base / "okdir" / "hi.txt");
  std::filesystem::remove(base / "okdir" / "hi.txt");
  std::filesystem::remove(base / "okdir");

  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  monitor.stop();
  return 0;
}

int run_simulated(core::Dialect dialect) {
  std::printf("# inotify unavailable; demonstrating on the simulated backend\n");
  common::ManualClock clock;
  localfs::MemFs fs;
  fs.mkdir("/watched");
  core::DsiRegistry registry;
  localfs::register_sim_dsis(registry, fs, clock);

  core::MonitorOptions options;
  options.storage.scheme = "sim-inotify";
  options.storage.root = "/watched";
  options.output_dialect = dialect;
  core::FsMonitor monitor(options, &registry, &clock);
  std::mutex mu;
  monitor.subscribe({}, [&](const std::vector<core::StdEvent>& batch) {
    std::lock_guard lock(mu);
    for (const auto& event : batch)
      std::printf("%s\n", monitor.render_line(event).c_str());
  });
  if (!monitor.start().is_ok()) return 1;
  workloads::MemFsTarget target(fs);
  workloads::run_evaluate_output_script(target, "/watched");
  monitor.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::Config config;
  const auto positional = config.parse_args(argc, argv);
  const auto dialect =
      core::parse_dialect(config.get_or("dialect", "inotify")).value_or(core::Dialect::kInotify);
  const int seconds = static_cast<int>(config.get_int("seconds", 1));

  if (!positional.empty() && positional[0] == "pipeline") return run_pipeline(config);
  if (!positional.empty() && positional[0] == "query") return run_query();

  if (!localfs::InotifyDsi::available()) return run_simulated(dialect);

  std::string path;
  if (!positional.empty()) {
    path = positional[0];
  } else {
    auto tmp = std::filesystem::temp_directory_path() / "fsmon_quickstart";
    std::filesystem::remove_all(tmp);
    std::filesystem::create_directories(tmp);
    path = tmp.string();
  }
  return run_real(path, dialect, seconds);
}
