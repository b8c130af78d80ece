#include "src/scenarios/scenario.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "src/chaos/fault.hpp"
#include "src/common/clock.hpp"
#include "src/common/random.hpp"
#include "src/common/string_util.hpp"
#include "src/eventstore/store.hpp"
#include "src/federation/federated_monitor.hpp"
#include "src/localfs/inotify_dsi.hpp"
#include "src/localfs/memfs.hpp"
#include "src/localfs/sim_dsi.hpp"
#include "src/lustre/filesystem.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/flow_control.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/spectrumscale/fal_dsi.hpp"
#include "src/transport/tcp.hpp"
#include "src/workloads/filebench.hpp"
#include "src/workloads/hacc.hpp"
#include "src/workloads/ior.hpp"
#include "src/workloads/scripts.hpp"
#include "src/workloads/target.hpp"

namespace fsmon::scenarios {

using common::ErrorCode;
using common::Result;
using common::Status;
using core::StdEvent;
using federation::FederatedMonitor;
using federation::MountTable;

namespace {

/// Tap decorator: counts every event the wrapped DSI emits, so the
/// verifier has per-mount ground truth independent of the federation
/// layer under test.
class CountingDsi final : public core::DsiBase {
 public:
  explicit CountingDsi(std::unique_ptr<core::DsiBase> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Status start(EventCallback callback) override {
    return inner_->start([this, callback = std::move(callback)](StdEvent event) {
      emitted_.fetch_add(1, std::memory_order_relaxed);
      callback(std::move(event));
    });
  }
  void stop() override { inner_->stop(); }
  bool running() const override { return inner_->running(); }

  std::uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  core::DsiBase* inner() { return inner_.get(); }

 private:
  std::unique_ptr<core::DsiBase> inner_;
  std::atomic<std::uint64_t> emitted_{0};
};

/// FsTarget over the simulated Spectrum Scale cluster.
class GpfsTarget final : public workloads::FsTarget {
 public:
  explicit GpfsTarget(spectrumscale::GpfsCluster& cluster) : cluster_(cluster) {}

  Status create(const std::string& path) override { return cluster_.create(path); }
  Status mkdir(const std::string& path) override { return cluster_.mkdir(path); }
  Status write(const std::string& path, std::uint64_t) override {
    return cluster_.write(path);
  }
  Status close(const std::string& path) override { return cluster_.close(path); }
  Status rename(const std::string& from, const std::string& to) override {
    return cluster_.rename(from, to);
  }
  Status remove(const std::string& path) override { return cluster_.unlink(path); }
  Status rmdir(const std::string& path) override { return cluster_.rmdir(path); }

 private:
  spectrumscale::GpfsCluster& cluster_;
};

/// FsTarget over a real directory tree (drives the real-inotify mount).
class PosixTarget final : public workloads::FsTarget {
 public:
  explicit PosixTarget(std::filesystem::path root) : root_(std::move(root)) {}

  Status create(const std::string& path) override {
    std::ofstream out(real(path));
    return out ? Status::ok() : Status(ErrorCode::kInvalid, "create " + path);
  }
  Status mkdir(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(real(path), ec);
    return ec ? Status(ErrorCode::kInvalid, "mkdir " + path) : Status::ok();
  }
  Status write(const std::string& path, std::uint64_t bytes) override {
    std::ofstream out(real(path), std::ios::app);
    if (!out) return Status(ErrorCode::kInvalid, "write " + path);
    out << std::string(static_cast<std::size_t>(std::min<std::uint64_t>(bytes, 256)), 'x');
    return Status::ok();
  }
  Status close(const std::string&) override { return Status::ok(); }
  Status rename(const std::string& from, const std::string& to) override {
    std::error_code ec;
    std::filesystem::rename(real(from), real(to), ec);
    return ec ? Status(ErrorCode::kNotFound, "rename " + from) : Status::ok();
  }
  Status remove(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::remove(real(path), ec) && !ec
               ? Status::ok()
               : Status(ErrorCode::kNotFound, "remove " + path);
  }
  Status rmdir(const std::string& path) override { return remove(path); }

 private:
  std::filesystem::path real(const std::string& path) const {
    return root_ / std::filesystem::path(path).relative_path();
  }
  std::filesystem::path root_;
};

/// Seeded mixed-op churn against any FsTarget (the scenario default):
/// creates, writes, renames, deletes, mkdirs in chaos-test proportions.
class TargetChurn {
 public:
  TargetChurn(workloads::FsTarget& target, std::uint64_t seed) : target_(target), rng_(seed) {
    for (int i = 0; i < 4; ++i) {
      const std::string dir = "/d" + std::to_string(i);
      if (target_.mkdir(dir).is_ok()) dirs_.push_back(dir);
    }
    if (dirs_.empty()) dirs_.push_back("/");
  }

  /// One op; returns 1 on success, 0 when the op failed.
  std::uint64_t step() {
    const double p = rng_.next_double();
    if (p < 0.5 || live_.empty()) {
      const std::string path =
          dirs_[rng_.next_below(dirs_.size())] + "/f" + std::to_string(next_++);
      if (target_.create(path).is_ok()) {
        live_.push_back(path);
        return 1;
      }
    } else if (p < 0.65) {
      const std::string& path = live_[rng_.next_below(live_.size())];
      if (target_.write(path, 512).is_ok() && target_.close(path).is_ok()) return 1;
    } else if (p < 0.8) {
      const std::size_t victim = rng_.next_below(live_.size());
      const std::string to =
          dirs_[rng_.next_below(dirs_.size())] + "/r" + std::to_string(next_++);
      if (target_.rename(live_[victim], to).is_ok()) {
        live_[victim] = to;
        return 1;
      }
    } else if (p < 0.92) {
      const std::size_t victim = rng_.next_below(live_.size());
      if (target_.remove(live_[victim]).is_ok()) {
        live_[victim] = live_.back();
        live_.pop_back();
        return 1;
      }
    } else {
      if (target_.mkdir("/m" + std::to_string(next_++)).is_ok()) return 1;
    }
    return 0;
  }

 private:
  workloads::FsTarget& target_;
  common::Rng rng_;
  std::vector<std::string> dirs_;
  std::vector<std::string> live_;
  int next_ = 0;
};

/// Everything one mount owns at runtime. Backend-specific members are
/// null for other backends.
struct MountRuntime {
  std::string name;
  std::string backend;
  std::string prefix;
  std::uint32_t mount_id = 0;
  bool skipped = false;

  lustre::LustreFs* lustre = nullptr;
  scalable::ScalableDsi* scalable = nullptr;
  spectrumscale::GpfsCluster* gpfs = nullptr;
  spectrumscale::SpectrumScaleDsi* fal = nullptr;
  CountingDsi* tap = nullptr;

  std::unique_ptr<workloads::FsTarget> target;
  std::unique_ptr<TargetChurn> churn;
};

/// (source, local cookie, kind) — the per-mount exactly-once key.
using EventKey = std::tuple<std::string, std::uint64_t, int>;

struct Verifier {
  std::mutex mu;
  std::map<std::string, std::map<EventKey, std::uint64_t>> counts;  // mount -> key -> n
  std::map<std::string, std::uint64_t> received;                    // mount -> events
  std::set<std::uint64_t> ids;
  std::uint64_t max_id = 0;
  std::uint64_t total = 0;

  void on_event(const StdEvent& event) {
    const std::size_t colon = event.source.find(':');
    const std::string mount =
        colon == std::string::npos ? event.source : event.source.substr(0, colon);
    std::lock_guard lock(mu);
    ++total;
    ids.insert(event.id);
    max_id = std::max(max_id, event.id);
    ++received[mount];
    ++counts[mount][EventKey{event.source, MountTable::local_cookie(event.cookie),
                             static_cast<int>(event.kind)}];
  }
};

struct Runtime {
  explicit Runtime(obs::MetricsRegistry& registry)
      : fed(federation::FederatedMonitorOptions{&registry}) {}

  std::unique_ptr<common::ManualClock> manual;  // soak mode
  common::Clock* clock = nullptr;
  std::vector<std::unique_ptr<lustre::LustreFs>> lustres;
  std::vector<std::unique_ptr<transport::Transport>> transports;
  std::vector<std::unique_ptr<localfs::MemFs>> memfs;
  std::vector<std::unique_ptr<spectrumscale::GpfsCluster>> clusters;
  // Declared after every backend it monitors: the federated monitor (and
  // with it every mounted DSI, collector, and shard) must be destroyed
  // FIRST — collector teardown still dereferences its LustreFs.
  FederatedMonitor fed;
  std::vector<MountRuntime> mounts;
  std::filesystem::path dir;
  std::vector<std::string> notes;  // non-fatal environment fallbacks
};

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const auto& part : common::split(csv, ',')) {
    const auto trimmed = common::trim(part);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

/// Build one mount from its config keys; appends ownership into the
/// runtime and registers it with the federated monitor.
Status build_mount(const ScenarioSpec& spec, Runtime& rt, const std::string& mname) {
  const auto& cfg = spec.config;
  const std::string key = "mount." + mname + ".";
  MountRuntime mount;
  mount.name = mname;
  mount.backend = cfg.get_or(key + "backend", "sim-inotify");
  mount.prefix = cfg.get_or(key + "prefix", "/mnt/" + mname);

  std::unique_ptr<core::DsiBase> dsi;
  if (mount.backend == "lustre") {
    lustre::LustreFsOptions fs_options;
    fs_options.mdt_count =
        static_cast<std::uint32_t>(cfg.get_int(key + "mdts", 2));
    rt.lustres.push_back(std::make_unique<lustre::LustreFs>(fs_options, *rt.clock));
    mount.lustre = rt.lustres.back().get();

    scalable::ScalableMonitorOptions options;
    options.shards = static_cast<std::size_t>(
        cfg.get_int(key + "shards", static_cast<std::int64_t>(fs_options.mdt_count)));
    const std::string carrier = cfg.get_or(key + "transport", "inproc");
    if (carrier == "tcp") {
      if (transport::TcpTransport::available()) {
        rt.transports.push_back(std::make_unique<transport::TcpTransport>());
        options.transport = rt.transports.back().get();
      } else {
        rt.notes.push_back(mname + ": sockets unavailable, tcp fell back to inproc");
      }
    }
    eventstore::EventStoreOptions store;
    store.directory = rt.dir / ("store_" + mname);
    options.aggregator.store = store;
    auto scalable_dsi =
        std::make_unique<scalable::ScalableDsi>(*mount.lustre, options, *rt.clock);
    mount.scalable = scalable_dsi.get();
    mount.target = std::make_unique<workloads::LustreTarget>(*mount.lustre);
    dsi = std::move(scalable_dsi);
  } else if (mount.backend.rfind("sim-", 0) == 0) {
    rt.memfs.push_back(std::make_unique<localfs::MemFs>());
    localfs::MemFs& fs = *rt.memfs.back();
    if (mount.backend == "sim-inotify") {
      dsi = std::make_unique<localfs::SimInotifyDsi>(fs, *rt.clock);
    } else if (mount.backend == "sim-kqueue") {
      dsi = std::make_unique<localfs::SimKqueueDsi>(fs, *rt.clock);
    } else if (mount.backend == "sim-fsevents") {
      dsi = std::make_unique<localfs::SimFsEventsDsi>(fs, *rt.clock);
    } else if (mount.backend == "sim-filesystemwatcher") {
      dsi = std::make_unique<localfs::SimFswDsi>(fs, *rt.clock);
    } else {
      return Status(ErrorCode::kInvalid, mname + ": unknown backend " + mount.backend);
    }
    mount.target = std::make_unique<workloads::MemFsTarget>(fs);
  } else if (mount.backend == "spectrumscale") {
    spectrumscale::GpfsClusterOptions options;
    options.node_count = static_cast<std::uint32_t>(cfg.get_int(key + "nodes", 3));
    // Virtual-time soaks jump the clock by hours at a time; the fileset
    // must not expire records the DSI has not consumed yet.
    options.retention_period =
        std::chrono::hours(cfg.get_int(key + "retention_hours", 100000));
    rt.clusters.push_back(
        std::make_unique<spectrumscale::GpfsCluster>(options, *rt.clock));
    mount.gpfs = rt.clusters.back().get();
    auto fal = std::make_unique<spectrumscale::SpectrumScaleDsi>(
        *mount.gpfs, spectrumscale::SpectrumScaleDsiOptions{}, *rt.clock);
    mount.fal = fal.get();
    mount.target = std::make_unique<GpfsTarget>(*mount.gpfs);
    dsi = std::move(fal);
  } else if (mount.backend == "inotify") {
    if (!localfs::InotifyDsi::available()) {
      if (cfg.get_bool(key + "optional", true)) {
        mount.skipped = true;
        rt.mounts.push_back(std::move(mount));
        rt.notes.push_back(mname + ": inotify unavailable, mount skipped");
        return Status::ok();
      }
      return Status(ErrorCode::kUnavailable, mname + ": inotify unavailable");
    }
    const std::filesystem::path root = rt.dir / ("inotify_" + mname);
    std::filesystem::create_directories(root);
    localfs::InotifyDsiOptions options;
    options.root = root.string();
    dsi = std::make_unique<localfs::InotifyDsi>(options);
    mount.target = std::make_unique<PosixTarget>(root);
  } else {
    return Status(ErrorCode::kInvalid, mname + ": unknown backend " + mount.backend);
  }

  auto tap = std::make_unique<CountingDsi>(std::move(dsi));
  mount.tap = tap.get();
  auto id = rt.fed.mount(mname, mount.prefix, std::move(tap));
  if (!id) return id.status();
  mount.mount_id = id.value();
  rt.mounts.push_back(std::move(mount));
  return Status::ok();
}

/// Arm the configured fault plan; returns the fault points armed (for
/// the fires report).
std::vector<std::string> arm_faults(const ScenarioSpec& spec, const Runtime& rt) {
  const std::string plan_name = spec.config.get_or("faults", "none");
  if (plan_name == "none") return {};
  chaos::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(spec.config.get_int("faults.seed", 1));
  if (const char* env = std::getenv("FSMON_CHAOS_SEED")) {
    plan.seed = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  auto add = [&plan](std::string point, chaos::FaultAction action, double probability,
                     std::uint64_t after_hits, std::uint64_t max_fires,
                     std::uint64_t arg = 0) {
    chaos::FaultRule rule;
    rule.point = std::move(point);
    rule.action = action;
    rule.probability = probability;
    rule.after_hits = after_hits;
    rule.max_fires = max_fires;
    rule.arg = arg;
    plan.rules.push_back(std::move(rule));
  };
  const bool shard_crash = plan_name == "shard_crash" || plan_name == "mixed";
  const bool tcp_drop = plan_name == "tcp_drop" || plan_name == "mixed";
  if (shard_crash) {
    for (const auto& mount : rt.mounts) {
      if (mount.scalable == nullptr) continue;
      const std::size_t shards = mount.scalable->monitor().sharded().shard_count();
      if (shards <= 1) {
        add("aggregator.before_persist", chaos::FaultAction::kCrash, 0.3, 4, 1);
      } else {
        for (std::size_t k = 0; k < shards; ++k) {
          add("aggregator.shard" + std::to_string(k) + ".before_persist",
              chaos::FaultAction::kCrash, 0.3, 4, 1);
        }
      }
    }
  }
  // "transport.before_send" is the sender-side drop point every carrier
  // (tcp included) consults; the refusal protocol must absorb the loss.
  // Batching means a whole workload fits in a handful of frames, so the
  // per-frame probability has to be high to bite at all.
  if (tcp_drop)
    add("transport.before_send", chaos::FaultAction::kDrop, 0.9, 0, 50);
  // Tear the very first group commit: WAL recovery must replay it.
  if (plan_name == "wal_torn")
    add("wal.group_commit_torn", chaos::FaultAction::kCrash, 1.0, 0, 1, /*arg=*/1);
  std::vector<std::string> points;
  for (const auto& rule : plan.rules) points.push_back(rule.point);
  chaos::FaultInjector::instance().arm(std::move(plan));
  return points;
}

/// Restart any crashed collector or aggregator shard (the chaos
/// babysitter). Returns the number of restarts performed.
std::uint64_t babysit(Runtime& rt) {
  std::uint64_t restarts = 0;
  for (auto& mount : rt.mounts) {
    if (mount.scalable == nullptr) continue;
    auto& monitor = mount.scalable->monitor();
    for (std::size_t i = 0; i < monitor.collector_count(); ++i) {
      if (monitor.collector(i).crashed()) {
        if (monitor.restart_collector(i).is_ok()) ++restarts;
      }
    }
    for (std::size_t k = 0; k < monitor.sharded().shard_count(); ++k) {
      if (monitor.sharded().shard(k).crashed()) {
        if (monitor.restart_aggregator_shard(k).is_ok()) ++restarts;
      }
    }
  }
  return restarts;
}

std::uint64_t run_workload(const ScenarioSpec& spec, Runtime& rt,
                           std::uint64_t& restarts) {
  const auto& cfg = spec.config;
  const std::string kind = cfg.get_or("workload", "churn");
  const std::uint64_t seed = static_cast<std::uint64_t>(cfg.get_int("workload.seed", 17));
  std::uint64_t ops = 0;
  if (kind == "churn") {
    const std::int64_t steps = cfg.get_int("workload.steps", 300);
    for (auto& mount : rt.mounts) {
      if (mount.skipped) continue;
      mount.churn = std::make_unique<TargetChurn>(*mount.target,
                                                  seed + mount.mount_id);
    }
    for (std::int64_t i = 0; i < steps; ++i) {
      for (auto& mount : rt.mounts) {
        if (mount.churn) ops += mount.churn->step();
      }
      if (i % 8 == 7) {
        restarts += babysit(rt);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return ops;
  }
  for (auto& mount : rt.mounts) {
    if (mount.skipped) continue;
    workloads::WorkloadFootprint footprint;
    // The canned workloads assume their base directory exists.
    for (const char* base : {"/ior", "/hacc", "/fb", "/perf"}) {
      (void)mount.target->mkdir(base);
    }
    if (kind == "ior") {
      workloads::IorOptions options;
      options.processes = static_cast<std::uint32_t>(cfg.get_int("workload.processes", 16));
      footprint = workloads::run_ior(*mount.target, "/ior", options);
    } else if (kind == "hacc") {
      workloads::HaccIoOptions options;
      options.processes = static_cast<std::uint32_t>(cfg.get_int("workload.processes", 16));
      options.particles = 64'000;
      footprint = workloads::run_hacc_io(*mount.target, "/hacc", options);
    } else if (kind == "filebench") {
      workloads::FilebenchOptions options;
      options.files = static_cast<std::uint64_t>(cfg.get_int("workload.files", 200));
      options.seed = seed;
      footprint = workloads::run_filebench_create(*mount.target, "/fb", options).footprint;
    } else if (kind == "script") {
      workloads::PerformanceScriptOptions options;
      options.iterations = static_cast<std::uint64_t>(cfg.get_int("workload.steps", 200));
      footprint = workloads::run_performance_script(*mount.target, "/perf", options);
    }
    ops += footprint.total_ops();
    restarts += babysit(rt);
  }
  return ops;
}

/// Subscriber churn (and the virtual-time soak): cycle federated
/// subscribers, and — where a lustre mount exists — subscriptions on its
/// fan-out hub, while the babysitter keeps restarting crashed stages
/// and the manual clock compresses the configured virtual span.
std::uint64_t run_subscriber_churn(const ScenarioSpec& spec, Runtime& rt,
                                   std::uint64_t& restarts, std::uint64_t& ops) {
  const auto& cfg = spec.config;
  const double virtual_hours = cfg.get_double("soak.virtual_hours", 0);
  std::uint64_t cycles = static_cast<std::uint64_t>(cfg.get_int("subscribers.churn", 0));
  if (cycles == 0 && virtual_hours > 0) cycles = 1000;
  if (cycles == 0) return 0;

  scalable::FanOutHub* hub = nullptr;
  for (auto& mount : rt.mounts) {
    if (mount.scalable != nullptr) {
      hub = &mount.scalable->monitor().hub();
      break;
    }
  }
  const common::Duration step_advance =
      virtual_hours > 0
          ? std::chrono::duration_cast<common::Duration>(
                std::chrono::duration<double>(virtual_hours * 3600.0 /
                                              static_cast<double>(cycles)))
          : common::Duration{0};
  std::uint64_t churns = 0;
  for (std::uint64_t i = 0; i < cycles; ++i) {
    const std::uint64_t token = rt.fed.subscribe([](const StdEvent&) {});
    rt.fed.unsubscribe(token);
    ++churns;
    if (hub != nullptr) {
      auto sub = hub->subscribe("churn-" + std::to_string(i), {});
      hub->attach(*sub, [](const scalable::HubItem&) {
        return scalable::FanOutHub::Turn::kContinue;
      });
      hub->detach(*sub);
      hub->unsubscribe(*sub);
      ++churns;
    }
    // Keep the pipeline fed so churned subscribers see live traffic.
    if (i % 4 == 0) {
      for (auto& mount : rt.mounts) {
        if (mount.churn) ops += mount.churn->step();
      }
    }
    if (i % 16 == 15) restarts += babysit(rt);
    if (rt.manual != nullptr) rt.manual->advance(step_advance);
  }
  return churns;
}

/// Block until every lustre changelog is cleared and every FAL record
/// consumed (faults disarmed; the babysitter keeps running).
void settle(Runtime& rt, std::uint64_t& restarts, std::vector<std::string>& failures,
            bool faults_armed) {
  // Drain under fire first: the workload finishes in milliseconds, but
  // most pipeline sends happen while collectors poll afterwards — keep
  // the fault plan armed through that drain so it actually bites, then
  // disarm for the final stability settle. Bounded: every plan caps
  // max_fires, so an armed drain cannot refuse forever.
  if (faults_armed) {
    const auto armed_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      restarts += babysit(rt);
      bool drained = true;
      for (auto& mount : rt.mounts) {
        if (mount.lustre != nullptr) {
          for (std::uint32_t i = 0; i < mount.lustre->mdt_count(); ++i) {
            if (mount.lustre->mds(i).mdt().changelog().retained() != 0) drained = false;
          }
        }
        if (mount.fal != nullptr && mount.gpfs != nullptr &&
            mount.fal->records_consumed() < mount.gpfs->fileset().last_sequence())
          drained = false;
      }
      if (drained || std::chrono::steady_clock::now() >= armed_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  chaos::FaultInjector::instance().disarm();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // Asynchronous backends (FAL sink pump, real inotify) have in-flight
  // records invisible from here, so "settled" additionally means the
  // observable counters stopped moving for a few consecutive rounds.
  std::map<const MountRuntime*, std::pair<std::uint64_t, std::uint64_t>> prev;
  int stable_rounds = 0;
  for (;;) {
    restarts += babysit(rt);
    bool done = true;
    bool stable = true;
    for (auto& mount : rt.mounts) {
      if (mount.lustre != nullptr) {
        for (std::uint32_t i = 0; i < mount.lustre->mdt_count(); ++i) {
          if (mount.lustre->mds(i).mdt().changelog().retained() != 0) done = false;
        }
      }
      std::uint64_t emitted = mount.tap != nullptr ? mount.tap->emitted() : 0;
      std::uint64_t upstream = 0;
      if (mount.fal != nullptr && mount.gpfs != nullptr) {
        upstream = mount.gpfs->fileset().last_sequence();
        if (mount.fal->records_consumed() < upstream) done = false;
      }
      auto& seen = prev[&mount];
      if (seen != std::pair{emitted, upstream}) {
        seen = {emitted, upstream};
        stable = false;
      }
    }
    stable_rounds = stable ? stable_rounds + 1 : 0;
    if (done && stable_rounds >= 3) return;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::string detail;
      for (auto& mount : rt.mounts) {
        if (mount.lustre == nullptr) continue;
        for (std::uint32_t i = 0; i < mount.lustre->mdt_count(); ++i) {
          const auto retained = mount.lustre->mds(i).mdt().changelog().retained();
          if (retained != 0)
            detail += " " + mount.name + ":MDT" + std::to_string(i) + "=" +
                      std::to_string(retained);
        }
      }
      failures.push_back("pipeline did not settle;" + detail);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Wait for consumer-side delivery to catch up with the settled stores.
void await_coverage(Runtime& rt, Verifier& verifier) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    bool done = true;
    {
      std::lock_guard lock(verifier.mu);
      for (auto& mount : rt.mounts) {
        if (mount.lustre == nullptr) continue;
        const auto& counts = verifier.counts[mount.name];
        for (std::uint32_t i = 0; i < mount.lustre->mdt_count(); ++i) {
          const std::string source = mount.name + ":lustre:MDT" + std::to_string(i);
          const std::uint64_t last = mount.lustre->mds(i).mdt().changelog().last_index();
          std::set<std::uint64_t> seen;
          for (const auto& [key, n] : counts) {
            if (std::get<0>(key) == source) seen.insert(std::get<1>(key));
          }
          if (seen.size() < last) done = false;
        }
        if (mount.tap != nullptr &&
            verifier.received[mount.name] < mount.tap->emitted())
          done = false;
      }
    }
    if (done || std::chrono::steady_clock::now() >= deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void verify(Runtime& rt, Verifier& verifier, ScenarioResult& result) {
  std::lock_guard lock(verifier.mu);
  for (auto& mount : rt.mounts) {
    MountReport report;
    report.name = mount.name;
    report.backend = mount.backend;
    report.skipped = mount.skipped;
    if (mount.skipped) {
      result.mounts.push_back(std::move(report));
      continue;
    }
    report.emitted = mount.tap->emitted();
    report.received = verifier.received[mount.name];
    if (mount.lustre != nullptr) {
      // Exactly-once against the changelog ground truth: every record
      // index of every MDT exactly once per kind.
      const auto& counts = verifier.counts[mount.name];
      for (const auto& [key, n] : counts) {
        if (n > 1) report.duplicated += n - 1;
      }
      for (std::uint32_t i = 0; i < mount.lustre->mdt_count(); ++i) {
        const std::string source = mount.name + ":lustre:MDT" + std::to_string(i);
        const std::uint64_t last = mount.lustre->mds(i).mdt().changelog().last_index();
        std::set<std::uint64_t> seen;
        for (const auto& [key, n] : counts) {
          if (std::get<0>(key) == source) seen.insert(std::get<1>(key));
        }
        for (std::uint64_t record = 1; record <= last; ++record) {
          if (!seen.count(record)) ++report.lost;
        }
      }
      if (report.lost > 0)
        result.failures.push_back(mount.name + ": lost " +
                                  std::to_string(report.lost) + " changelog records");
      if (report.duplicated > 0)
        result.failures.push_back(mount.name + ": " + std::to_string(report.duplicated) +
                                  " duplicated deliveries");
    } else {
      // Synchronous backends: the federation layer must deliver exactly
      // what the DSI emitted.
      if (report.emitted > report.received)
        report.lost = report.emitted - report.received;
      if (report.received > report.emitted)
        report.duplicated = report.received - report.emitted;
      if (report.lost > 0 || report.duplicated > 0)
        result.failures.push_back(mount.name + ": emitted " +
                                  std::to_string(report.emitted) + " != received " +
                                  std::to_string(report.received));
    }
    result.mounts.push_back(std::move(report));
  }
  // The merged stream's ids must be dense and unique across all mounts.
  if (verifier.ids.size() != verifier.total)
    result.failures.push_back("duplicate federated event ids");
  if (verifier.max_id != verifier.total)
    result.failures.push_back("federated ids not dense: max " +
                              std::to_string(verifier.max_id) + " != count " +
                              std::to_string(verifier.total));
  result.events = verifier.total;
}

}  // namespace

Result<ScenarioSpec> ScenarioSpec::parse(std::string_view text) {
  ScenarioSpec spec;
  try {
    spec.config.parse_text(text);
  } catch (const std::exception& e) {
    return Status(ErrorCode::kInvalid, e.what());
  }
  auto name = spec.config.get("name");
  if (!name || name->empty())
    return Status(ErrorCode::kInvalid, "scenario has no `name = ...` key");
  spec.name = *name;
  return spec;
}

Result<ScenarioSpec> ScenarioSpec::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open())
    return Status(ErrorCode::kNotFound, "cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto spec = parse(buffer.str());
  if (!spec) {
    return Status(spec.status().code(), path + ": " + spec.status().message());
  }
  return spec;
}

std::string MountReport::to_line(const std::string& scenario) const {
  std::ostringstream out;
  out << "MOUNT scenario=" << scenario << " mount=" << name << " backend=" << backend
      << " emitted=" << emitted << " received=" << received << " lost=" << lost
      << " dup=" << duplicated << " stale=" << stale
      << " skipped=" << (skipped ? 1 : 0);
  return out.str();
}

std::string ScenarioResult::to_line() const {
  std::uint64_t lost = 0;
  std::uint64_t dup = 0;
  std::uint64_t stale = 0;
  for (const auto& mount : mounts) {
    lost += mount.lost;
    dup += mount.duplicated;
    stale += mount.stale;
  }
  std::ostringstream out;
  out << "RESULT scenario=" << name << " status=" << (passed ? "PASS" : "FAIL")
      << " events=" << events << " events_per_sec=" << static_cast<std::uint64_t>(events_per_sec)
      << " ops=" << workload_ops << " mounts=" << mounts.size() << " lost=" << lost
      << " dup=" << dup << " stale=" << stale << " restarts=" << restarts
      << " faults=" << faults_injected << " churns=" << subscriber_churns
      << " wall_s=" << wall_seconds << " virtual_h=" << virtual_hours << " detail=\""
      << (failures.empty() ? "-" : failures.front()) << "\"";
  return out.str();
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.name = spec.name;
  obs::MetricsRegistry registry;
  Runtime rt(registry);
  rt.dir = std::filesystem::temp_directory_path() /
           ("fsmon_scenario_" + std::to_string(::getpid()) + "_" + spec.name);
  std::filesystem::remove_all(rt.dir);
  std::filesystem::create_directories(rt.dir);

  const double virtual_hours = spec.config.get_double("soak.virtual_hours", 0);
  if (virtual_hours > 0) {
    rt.manual = std::make_unique<common::ManualClock>();
    rt.clock = rt.manual.get();
    result.virtual_hours = virtual_hours;
  } else {
    rt.clock = &common::RealClock::instance();
  }

  const auto mount_names = split_list(spec.config.get_or("mounts", ""));
  if (mount_names.empty()) {
    result.failures.push_back("scenario lists no mounts");
    return result;
  }
  for (const auto& mname : mount_names) {
    if (auto s = build_mount(spec, rt, mname); !s.is_ok()) {
      result.failures.push_back(s.to_string());
      return result;
    }
  }

  Verifier verifier;
  rt.fed.subscribe([&verifier](const StdEvent& event) { verifier.on_event(event); });
  const std::int64_t population = spec.config.get_int("subscribers", 1);
  std::atomic<std::uint64_t> population_seen{0};
  for (std::int64_t i = 1; i < population; ++i) {
    rt.fed.subscribe([&population_seen](const StdEvent&) {
      population_seen.fetch_add(1, std::memory_order_relaxed);
    });
  }

  if (auto s = rt.fed.start(); !s.is_ok()) {
    result.failures.push_back("start: " + s.to_string());
    chaos::FaultInjector::instance().disarm();
    return result;
  }

  const auto armed_points = arm_faults(spec, rt);
  const auto wall_start = std::chrono::steady_clock::now();
  result.workload_ops = run_workload(spec, rt, result.restarts);
  result.subscriber_churns =
      run_subscriber_churn(spec, rt, result.restarts, result.workload_ops);
  settle(rt, result.restarts, result.failures, !armed_points.empty());
  await_coverage(rt, verifier);
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  for (const auto& point : armed_points)
    result.faults_injected += chaos::FaultInjector::instance().fires(point);

  verify(rt, verifier, result);
  if (result.wall_seconds > 0)
    result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;

  rt.fed.stop();
  chaos::FaultInjector::instance().disarm();
  std::filesystem::remove_all(rt.dir);
  result.passed = result.failures.empty();
  return result;
}

}  // namespace fsmon::scenarios
