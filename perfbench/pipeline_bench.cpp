// End-to-end pipeline benchmark: drives the real threaded ScalableMonitor
// (4 MDTs, 4 aggregator shards, FanOutHub with 100 subscribers: 99
// project-subtree subscribers plus one catch-all "all" subscriber) with
// zero modeled cost (fid2path cost 0, commit latency 0, a real WAL on
// disk), and checks every delivered stream against a reference.
//
// Workloads (see BENCHMARK.json for why each exists):
//   drain_inproc    closed batch job: a changelog backlog written during
//                   set-up is drained over the inproc carrier until every
//                   subscriber holds its full stream.
//   live_tcp        open loop: one generator thread issues ops at a fixed
//                   rate; every pipeline hop rides TcpTransport.
//   catchup_inproc  open loop over inproc beside a late consumer that
//                   replays the whole history from 0, pass after pass.
//
// A run repeats rounds (fresh file system, pipeline and store each
// round) until --seconds of wall time have passed, at least three, and
// reports per-round medians. With --trace 1 it instead runs one untraced
// and one traced round, then the per-layer probes, and prints the
// per-layer ledger. The last stdout line is the JSON result.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.hpp"
#include "perfbench/probes.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/tcp.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace scalable = fsmon::scalable;
using fsmon::core::EventBatch;
using fsmon::core::FilterRule;

enum class Workload { kDrain, kLiveTcp, kCatchup };

/// Hub credit window, above the event count of any round, so flow control
/// never demotes a subscriber to store catch-up. Catch-up pages the merged
/// store in fixed-size pages; a page can end between the MOVED_FROM and
/// MOVED_TO halves of a rename, and the consumer's dedup window then drops
/// the second half as a duplicate (they share a cookie), so a demotion
/// would lose events. See README.md, "Flow control".
constexpr std::uint64_t kCreditWindow = 1ull << 24;

struct Config {
  Workload workload = Workload::kDrain;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir = ".bench_build/run";
  std::filesystem::path trace_out;
  std::string commit = "unknown";
  // Sizes; --smoke shrinks them.
  std::uint64_t files_per_project = 100;  ///< Filebench fileset size of each project tree.
  std::size_t backlog_ops = 128000;  ///< Drain backlog / catch-up preload, after the trees.
  double rate_ops = 20000;           ///< Offered op rate of the open loop.
  double phase_s = 2.5;              ///< Open-loop phase per round.
  int min_rounds = 3;
  std::size_t probe_ops = 50000;
  std::size_t hop_iterations = 200;
  /// Catch-up: the CPU the replay thread is pinned to (the pipeline runs
  /// on the others), or -1 when there is only one CPU.
  int replay_cpu = -1;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Peak resident set size of the process so far (getrusage ru_maxrss).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// CPU time of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Pins the calling thread (and the threads it starts later) to `cpus`.
void pin_thread(const cpu_set_t& cpus) { (void)sched_setaffinity(0, sizeof cpus, &cpus); }

/// Threads of this process, from /proc/self/status.
int thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  std::fclose(f);
  return threads;
}

/// Host-wide CPU time split from /proc/stat: {busy, idle, steal} ticks.
std::array<std::uint64_t, 3> host_cpu_ticks() {
  std::array<std::uint64_t, 3> ticks{};
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks = {v[0] + v[1] + v[2] + v[5] + v[6], v[3] + v[4], v[7]};
  }
  std::fclose(f);
  return ticks;
}

std::string filesystem_name(const std::filesystem::path& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

/// One round's pipeline: file system, monitor, the 100 hub subscribers
/// (plus the late consumer in catch-up), and the delivery bookkeeping
/// their callbacks write. Callbacks capture `this`, so it never moves.
struct Pipeline {
  Pipeline(const Config& cfg, int round, fsmon::obs::MetricsRegistry* registry)
      : fs(make_fs_options(), clock),
        ops(cfg.seed * 1000003ull + static_cast<std::uint64_t>(round), cfg.files_per_project),
        project_keys(kWatchedProjects) {
    if (registry != nullptr) fs.attach_metrics(*registry);
    scalable::ScalableMonitorOptions options;
    options.shards = kMdts;
    options.fanout_hub = true;
    options.collector.resolver.base_cost = {};
    options.collector.resolver.per_component_cost = {};
    options.collector.metrics = registry;
    options.aggregator.metrics = registry;
    options.aggregator.commit_latency = {};
    options.flow.credit_window = kCreditWindow;
    fsmon::eventstore::EventStoreOptions store;
    store.directory = cfg.workdir / ("round" + std::to_string(round));
    options.aggregator.store = store;
    if (cfg.workload == Workload::kLiveTcp) {
      tcp = std::make_unique<fsmon::transport::TcpTransport>();
      options.transport = tcp.get();
    }
    monitor = std::make_unique<scalable::ScalableMonitor>(fs, options, clock);

    rules.emplace_back();  // the catch-all subscriber
    for (int p = 0; p < kWatchedProjects; ++p) {
      FilterRule rule;
      rule.root = project_root(p);
      rules.push_back({rule});
    }
    for (std::size_t s = 0; s < rules.size(); ++s) {
      scalable::ConsumerOptions copt;
      copt.rules = rules[s];
      copt.metrics = registry;
      scalable::Consumer::BatchCallback callback;
      if (s == 0) {
        callback = [this](const EventBatch& batch) { on_all(batch); };
      } else {
        callback = [this, p = s - 1](const EventBatch& batch) { on_project(p, batch); };
      }
      consumers.push_back(monitor->make_consumer(s == 0 ? "all" : "proj" + std::to_string(s - 1),
                                                 copt, std::move(callback)));
    }
    if (cfg.workload == Workload::kCatchup) {
      // Only the replay thread drives it.
      late = make_replay_consumer(*monitor, "late", [this](const EventBatch& batch) {
        for (const auto& event : batch.events) replay_check.on_event(event);
      });
    }
  }

  ~Pipeline() { stop(); }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  static fsmon::lustre::LustreFsOptions make_fs_options() {
    fsmon::lustre::LustreFsOptions o;
    o.mdt_count = kMdts;
    return o;
  }

  void on_all(const EventBatch& batch) {
    const std::int64_t t = now_ns();
    for (const auto& event : batch.events) {
      ledger->receive(mdt_of(event.source), event.cookie, event.kind, t);
      const int p = project_of(event.path);
      if (p >= 0 && p < kWatchedProjects) {
        auto& n = expected_by_project[static_cast<std::size_t>(p)];
        n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
      }
    }
    all_batches.store(all_batches.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    last_ns[0].store(t, std::memory_order_relaxed);
    all_delivered.fetch_add(batch.size(), std::memory_order_release);
  }

  void on_project(std::size_t p, const EventBatch& batch) {
    const std::int64_t t = now_ns();
    auto& keys = project_keys[p];
    for (const auto& event : batch.events)
      keys.push_back(event_key(mdt_of(event.source), event.kind, event.cookie));
    last_ns[p + 1].store(t, std::memory_order_relaxed);
    project_delivered[p].fetch_add(batch.size(), std::memory_order_release);
  }

  void start_consumers() {
    for (auto& consumer : consumers) (void)consumer->start();
  }

  /// Stop every subscriber (in parallel: an idle hub consumer notices a
  /// stop only at its next pop timeout) and then the monitor.
  void stop() {
    if (stopped) return;
    stopped = true;
    std::vector<std::thread> stoppers;
    for (auto& consumer : consumers)
      stoppers.emplace_back([c = consumer.get()] { c->stop(); });
    for (auto& t : stoppers) t.join();
    monitor->stop();
  }

  /// True once the catch-all subscriber holds `expected_all` events and
  /// every project subscriber holds every event the catch-all stream
  /// routed to its project.
  bool delivered(std::uint64_t expected_all) const {
    if (all_delivered.load(std::memory_order_acquire) < expected_all) return false;
    for (std::size_t p = 0; p < kWatchedProjects; ++p) {
      if (project_delivered[p].load(std::memory_order_acquire) <
          expected_by_project[p].load(std::memory_order_relaxed))
        return false;
    }
    return true;
  }

  bool wait_delivered(std::uint64_t expected_all, double timeout_s) const {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (!delivered(expected_all)) {
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  std::int64_t last_delivery_ns() const {
    std::int64_t t = 0;
    for (const auto& v : last_ns) t = std::max(t, v.load(std::memory_order_relaxed));
    return t;
  }

  /// The merged store stream (every persisted event, shard order kept).
  std::vector<fsmon::core::StdEvent> stored_stream() {
    std::vector<fsmon::core::StdEvent> stream;
    auto& sharded = monitor->sharded();
    scalable::VectorCursor cursor(sharded.shard_count());
    for (;;) {
      auto page = sharded.events_since(cursor, 65536);
      if (!page || page->empty()) break;
      for (auto& event : std::move(page).take()) stream.push_back(std::move(event));
    }
    return stream;
  }

  fsmon::common::RealClock clock;
  fsmon::lustre::LustreFs fs;
  std::unique_ptr<fsmon::transport::TcpTransport> tcp;  ///< Outlives the monitor.
  std::unique_ptr<scalable::ScalableMonitor> monitor;
  std::vector<std::vector<FilterRule>> rules;  ///< [0] catch-all, [1+p] project p.
  OpStream ops;
  std::unique_ptr<StreamLedger> ledger;  ///< Sized once the project trees are built.
  std::array<std::atomic<std::uint64_t>, kWatchedProjects> expected_by_project{};
  std::array<std::atomic<std::uint64_t>, kWatchedProjects> project_delivered{};
  std::vector<std::vector<std::uint64_t>> project_keys;
  std::array<std::atomic<std::int64_t>, kWatchedProjects + 1> last_ns{};
  std::atomic<std::uint64_t> all_delivered{0};
  std::atomic<std::uint64_t> all_batches{0};
  ReplayPassCheck replay_check;
  bool stopped = false;
  // Declared last: destroyed first, while the monitor and the counters
  // their callbacks touch are still alive.
  std::vector<std::unique_ptr<scalable::Consumer>> consumers;
  std::unique_ptr<scalable::Consumer> late;
};

/// Open-loop latency percentiles are taken per window of due times; a
/// window needs enough samples for its p99 to have ten beyond it.
constexpr std::int64_t kLatencyWindowNs = 250'000'000;
constexpr std::size_t kMinWindowSamples = 1000;

struct RoundStats {
  double setup_s = 0;
  double throughput_eps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t latency_samples = 0;
  double cpu_us_per_event = 0;
  double peak_rss_mb = 0;
  double gen_late_p99_ms = 0;
  std::vector<double> pass_eps;       ///< Replayed events per second, per pass.
  std::vector<double> window_p50_ms;  ///< Per latency window (open loop) or round.
  std::vector<double> window_p99_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::array<std::uint64_t, 3> failed_by_check{};  ///< all, projects, replay passes.
  std::uint64_t timed_events = 0;
  std::uint64_t all_batches = 0;
  std::uint64_t replayed = 0;
  std::uint64_t replay_passes = 0;
  double catchup_eps = 0;
  double phase_s = 0;   ///< Timed window: release/first due to last delivery.
  double cpu_s = 0;     ///< Process CPU over the timed window.
  double replay_s = 0;  ///< Time inside replay_historic (catch-up).
  double replay_cpu_s = 0;  ///< CPU of the replay thread (catch-up).
  bool completed = true;
  int threads_after = 0;
  std::uint64_t tree_dirs = 0;  ///< Project trees built in set-up.
  std::uint64_t tree_files = 0;
  double tree_depth = 0;
};

/// Open-loop generator: op i is due at t0 + i/rate regardless of how the
/// pipeline keeps up; latency is later taken from the due time, and how
/// late each op was actually issued is recorded.
void run_open_loop(Pipeline& pl, double rate, std::int64_t t0, std::int64_t t_end,
                   std::size_t max_ops, Tracer* tracer, std::uint32_t parent,
                   std::vector<std::int64_t>& late_ns, std::uint64_t& events, bool& ok) {
  const double interval = 1e9 / rate;
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval);
    if (due >= t_end || pl.ledger->ops >= max_ops) break;
    std::int64_t t = now_ns();
    if (due > t) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - t));
      t = now_ns();
    }
    late_ns.push_back(t - due);
    OpRecord op;
    {
      ScopedSpan span(tracer, "lustre.op", parent);
      if (!pl.ops.apply_next(pl.fs, op)) {
        ok = false;
        return;
      }
    }
    if (!pl.ledger->expect(op, due)) {
      ok = false;
      return;
    }
    events += static_cast<std::uint64_t>(std::popcount(op.expect));
  }
}

RoundStats run_round(const Config& cfg, int round, Tracer* tracer,
                     fsmon::obs::MetricsRegistry* registry, std::unique_ptr<Pipeline>* keep) {
  RoundStats st;
  const bool live = cfg.workload != Workload::kDrain;
  const std::size_t live_ops =
      live ? static_cast<std::size_t>(cfg.rate_ops * cfg.phase_s * 1.05) + 16 : 0;
  const std::size_t backlog = cfg.workload == Workload::kLiveTcp ? 0 : cfg.backlog_ops;
  if (tracer != nullptr) tracer->set_trace(static_cast<std::uint32_t>(round));

  const std::int64_t setup0 = now_ns();
  auto pl = std::make_unique<Pipeline>(cfg, round, registry);
  bool ops_ok = true;
  {
    ScopedSpan setup_span(tracer, "round.setup");
    std::vector<OpRecord> tree_ops;
    for (int p = 0; p < kProjects; ++p)
      ops_ok &= pl->ops.build_project(pl->fs, p, tree_ops, tracer, setup_span.id());
    pl->ledger = std::make_unique<StreamLedger>(tree_ops.size() + backlog + live_ops + 16);
    for (const OpRecord& op : tree_ops) ops_ok &= pl->ledger->expect(op, 0);
    st.tree_dirs = pl->ops.directories();
    st.tree_files = pl->ops.files_built();
    st.tree_depth = pl->ops.mean_file_depth();
    OpRecord op;
    for (std::size_t i = 0; i < backlog && ops_ok; ++i) {
      ScopedSpan span(tracer, "lustre.op", setup_span.id());
      ops_ok &= pl->ops.apply_next(pl->fs, op) && pl->ledger->expect(op, 0);
    }
    pl->start_consumers();
    if (live) {
      (void)pl->monitor->start();
      st.completed &= pl->wait_delivered(pl->ledger->expected_events, 60);
    }
  }
  st.setup_s = static_cast<double>(now_ns() - setup0) / 1e9;

  std::vector<std::int64_t> latencies;
  {
    ScopedSpan phase_span(tracer, "round.phase");
    if (!live) {
      const std::int64_t release = now_ns();
      const double cpu0 = cpu_seconds();
      (void)pl->monitor->start();
      st.completed &= pl->wait_delivered(pl->ledger->expected_events, 120);
      const double cpu1 = cpu_seconds();
      const std::int64_t end = pl->last_delivery_ns();
      st.timed_events = pl->ledger->expected_events;
      st.phase_s = static_cast<double>(std::max<std::int64_t>(end - release, 1)) / 1e9;
      st.cpu_s = cpu1 - cpu0;
      latencies = pl->ledger->latencies_ns(release);
    } else {
      const std::uint64_t setup_events = pl->ledger->expected_events;
      const std::int64_t t0 = now_ns() + 1'000'000;
      const std::int64_t t_end = t0 + static_cast<std::int64_t>(cfg.phase_s * 1e9);
      const double cpu0 = cpu_seconds();
      std::uint64_t gen_events = 0;
      bool gen_ok = true;
      std::vector<std::int64_t> late_ns;
      std::thread generator([&] {
        run_open_loop(*pl, cfg.rate_ops, t0, t_end, pl->ledger->capacity() - 8, tracer,
                      phase_span.id(), late_ns, gen_events, gen_ok);
      });
      std::thread replayer;
      if (cfg.workload == Workload::kCatchup) {
        replayer = std::thread([&] {
          if (cfg.replay_cpu >= 0) {
            cpu_set_t cpus;
            CPU_ZERO(&cpus);
            CPU_SET(cfg.replay_cpu, &cpus);
            pin_thread(cpus);
          }
          const double replay_cpu0 = thread_cpu_seconds();
          std::int64_t replay_ns = 0;
          while (now_ns() < t_end) {
            std::vector<std::uint64_t> floor;
            for (std::size_t k = 0; k < pl->monitor->sharded().shard_count(); ++k)
              floor.push_back(pl->monitor->sharded().shard(k).persisted());
            pl->replay_check.start(floor);
            const std::int64_t r0 = now_ns();
            ScopedSpan span(tracer, "consumer.replay_historic", phase_span.id());
            auto replayed = pl->late->replay_historic(0);
            const std::int64_t pass_ns = now_ns() - r0;
            replay_ns += pass_ns;
            if (!replayed) break;
            st.pass_eps.push_back(static_cast<double>(replayed.value()) * 1e9 /
                                  static_cast<double>(std::max<std::int64_t>(pass_ns, 1)));
            span.set_items(replayed.value());
            st.replayed += replayed.value();
            st.attempted += pl->replay_check.finish();
            ++st.replay_passes;
          }
          st.replay_s = static_cast<double>(replay_ns) / 1e9;
          st.replay_cpu_s = thread_cpu_seconds() - replay_cpu0;
        });
      }
      generator.join();
      ops_ok &= gen_ok;
      st.gen_late_p99_ms = quantile(late_ns, 0.99) / 1e6;
      st.completed &= pl->wait_delivered(setup_events + gen_events, 60);
      if (replayer.joinable()) replayer.join();
      const double cpu1 = cpu_seconds();
      const std::int64_t end = pl->last_delivery_ns();
      st.timed_events = gen_events;
      st.phase_s = static_cast<double>(std::max<std::int64_t>(end - t0, 1)) / 1e9;
      // The replay thread's own CPU is the replay's cost, not the live
      // pipeline's: it is reported apart (replay_cpu_s) and left out here.
      st.cpu_s = cpu1 - cpu0 - st.replay_cpu_s;
      latencies = pl->ledger->latencies_ns();
      for (auto& window : pl->ledger->latency_windows(t0, kLatencyWindowNs)) {
        if (window.size() < kMinWindowSamples) continue;
        st.window_p50_ms.push_back(quantile(window, 0.50) / 1e6);
        st.window_p99_ms.push_back(quantile(std::move(window), 0.99) / 1e6);
      }
    }
    // Before the correctness check allocates: in the warm-up round (the
    // first in the process) this is the round's own peak.
    st.peak_rss_mb = peak_rss_mb();
  }
  st.throughput_eps = static_cast<double>(st.timed_events) / st.phase_s;
  st.cpu_us_per_event =
      st.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(st.timed_events, 1));
  st.catchup_eps = st.replay_s > 0 ? static_cast<double>(st.replayed) / st.replay_s : 0;
  st.latency_samples = latencies.size();
  st.p50_ms = quantile(latencies, 0.50) / 1e6;
  st.p99_ms = quantile(latencies, 0.99) / 1e6;
  if (st.window_p99_ms.empty()) {  // drain, or an open loop too short to window
    st.window_p50_ms.push_back(st.p50_ms);
    st.window_p99_ms.push_back(st.p99_ms);
  }
  st.all_batches = pl->all_batches.load();

  pl->stop();
  // Correctness: the catch-all stream against the generator's record,
  // every project stream against core::matches_any over the stored
  // stream, and (catch-up) every replay pass against its floor.
  st.attempted += pl->ledger->expected_events;
  st.failed_by_check[0] = pl->ledger->failures();
  {
    const auto stream = pl->stored_stream();
    std::vector<std::vector<FilterRule>> project_rules(pl->rules.begin() + 1, pl->rules.end());
    const CheckResult projects = check_projects(stream, project_rules, pl->project_keys);
    st.attempted += projects.expected;
    st.failed_by_check[1] = projects.failed;
  }
  st.failed_by_check[2] = pl->replay_check.errors();
  st.failed += st.failed_by_check[0] + st.failed_by_check[1] + st.failed_by_check[2];
  if (!ops_ok) ++st.failed;

  if (keep != nullptr) {
    *keep = std::move(pl);
  } else {
    pl.reset();
    std::error_code ec;
    std::filesystem::remove_all(cfg.workdir / ("round" + std::to_string(round)), ec);
  }
  // Hand freed memory back so every round starts from the same footprint.
  malloc_trim(0);
  st.threads_after = thread_count();
  return st;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("# metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// CPU of the catch-up replay thread per replayed event (0 elsewhere).
double replay_cpu_ns_per_event(const RoundStats& st) {
  return st.replayed > 0 ? st.replay_cpu_s * 1e9 / static_cast<double>(st.replayed) : 0;
}

void print_round(int round, const RoundStats& st, bool traced) {
  std::printf(
      "# round %d%s: setup %.3f s, %llu timed events, %.0f ev/s, p50 %.3f ms, p99 %.3f ms "
      "(%zu samples), %.2f us cpu/event, peak rss %.1f MB, failed %llu/%llu, threads left %d%s\n",
      round, traced ? " (traced)" : "", st.setup_s,
      static_cast<unsigned long long>(st.timed_events), st.throughput_eps, st.p50_ms, st.p99_ms,
      st.latency_samples, st.cpu_us_per_event, st.peak_rss_mb,
      static_cast<unsigned long long>(st.failed), static_cast<unsigned long long>(st.attempted),
      st.threads_after, st.completed ? "" : " INCOMPLETE");
  if (st.failed > 0)
    std::printf("#   failed checks: all %llu, projects %llu, replay %llu\n",
                static_cast<unsigned long long>(st.failed_by_check[0]),
                static_cast<unsigned long long>(st.failed_by_check[1]),
                static_cast<unsigned long long>(st.failed_by_check[2]));
  if (round == 0)
    std::printf("#   project trees: %llu directories, %llu files, mean file depth %.2f\n",
                static_cast<unsigned long long>(st.tree_dirs),
                static_cast<unsigned long long>(st.tree_files), st.tree_depth);
  if (st.replay_passes > 0)
    std::printf("#   replay: %llu passes, %llu events, %.0f ev/s, %.1f ns cpu/event\n",
                static_cast<unsigned long long>(st.replay_passes),
                static_cast<unsigned long long>(st.replayed), st.catchup_eps,
                replay_cpu_ns_per_event(st));
  std::fflush(stdout);
}

/// The workload's headline rate: drained (drain), delivered at the
/// offered rate (live), or replayed (catch-up) events per second.
double headline_eps(const Config& cfg, const RoundStats& st) {
  return cfg.workload == Workload::kCatchup ? st.catchup_eps : st.throughput_eps;
}

int run_e2e(const Config& cfg) {
  // The first round warms the process up (heap growth, first-touch page
  // faults, file creation) and is not timed; its peak RSS, taken in a
  // fresh process, is the memory figure. Measured rounds follow until
  // --seconds of wall time have passed, at least min_rounds of them.
  const std::int64_t start = now_ns();
  const RoundStats warmup = run_round(cfg, 0, nullptr, nullptr, nullptr);
  print_round(0, warmup, false);
  std::vector<RoundStats> rounds;
  while (static_cast<int>(rounds.size()) < cfg.min_rounds ||
         (static_cast<double>(now_ns() - start) / 1e9 < cfg.seconds && rounds.size() < 64)) {
    const int round = static_cast<int>(rounds.size()) + 1;
    rounds.push_back(run_round(cfg, round, nullptr, nullptr, nullptr));
    print_round(round, rounds.back(), false);
  }
  // Rates and CPU are pooled over the measured rounds (total work over
  // total time): a round that lands in a slow scheduling mode moves the
  // pooled figure by its share instead of flipping a median. Latency
  // percentiles are medians of the per-round percentiles, so one round's
  // stall does not set the run's tail. Open-loop rounds contribute one
  // percentile per latency window (ops grouped by due time), drain rounds
  // one per round.
  std::uint64_t attempted = warmup.attempted, failed = warmup.failed;
  std::uint64_t events = 0;
  double phase_s = 0, cpu_s = 0, replay_cpu_s = 0;
  std::uint64_t replayed = 0;
  bool completed = warmup.completed;
  std::vector<double> setups, p50s, p99s, late, passes;
  std::size_t samples = 0;
  for (const auto& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    completed &= r.completed;
    events += r.timed_events;
    phase_s += r.phase_s;
    cpu_s += r.cpu_s;
    replay_cpu_s += r.replay_cpu_s;
    replayed += r.replayed;
    setups.push_back(r.setup_s);
    p50s.insert(p50s.end(), r.window_p50_ms.begin(), r.window_p50_ms.end());
    p99s.insert(p99s.end(), r.window_p99_ms.begin(), r.window_p99_ms.end());
    samples += r.latency_samples;
    late.push_back(r.gen_late_p99_ms);
    passes.insert(passes.end(), r.pass_eps.begin(), r.pass_eps.end());
  }
  // The replay rate is the median over every replay pass of the run:
  // passes are short, and the replay thread competes for the same cores
  // as the live pipeline, so single passes catch scheduling bursts.
  const double eps = cfg.workload == Workload::kCatchup
                         ? median(passes)
                         : static_cast<double>(events) / std::max(phase_s, 1e-9);
  std::printf("# %zu measured rounds, %zu latency samples\n", rounds.size(), samples);
  std::printf("# latency windows: %zu, p99 q1/median/q3 %.3f/%.3f/%.3f ms\n", p99s.size(),
              quantile(p99s, 0.25), quantile(p99s, 0.50), quantile(p99s, 0.75));
  const char* eps_name = cfg.workload == Workload::kDrain   ? "drain_eps"
                         : cfg.workload == Workload::kCatchup ? "catchup_eps"
                                                              : "delivered_eps";
  std::printf("# %s = %.1f 1/s\n", eps_name, eps);
  std::printf("# gen_late_p99_ms = %.4f ms\n", median(late));
  if (replayed > 0)
    std::printf("# replay_cpu_ns_per_event = %.1f ns (replay thread, kept out of "
                "cpu_us_per_event)\n",
                replay_cpu_s * 1e9 / static_cast<double>(replayed));
  std::printf("# failed_frac = %.6g (%llu of %llu)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("# spans recorded: 0\n");
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"throughput_eps", eps, "1/s"},
      {"e2e_p50_ms", median(p50s), "ms"},
      {"e2e_p99_ms", median(p99s), "ms"},
      {"cpu_us_per_event", cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(events, 1)),
       "us"},
      {"peak_rss_mb", warmup.peak_rss_mb, "MB"},
  };
  print_result(failed == 0 && completed, attempted, failed, metrics);
  return 0;
}

int run_traced(const Config& cfg) {
  // A warm-up round, an untraced baseline round, then the traced round
  // (spans + metrics registry on); the difference between the last two
  // is the tracing overhead.
  const RoundStats warmup = run_round(cfg, 0, nullptr, nullptr, nullptr);
  print_round(0, warmup, false);
  const RoundStats plain = run_round(cfg, 1, nullptr, nullptr, nullptr);
  print_round(1, plain, false);
  Tracer tracer;
  fsmon::obs::MetricsRegistry registry;
  std::unique_ptr<Pipeline> pl;
  const RoundStats traced = run_round(cfg, 2, &tracer, &registry, &pl);
  print_round(2, traced, true);

  const auto snapshot = registry.snapshot();
  const double frames = static_cast<double>(snapshot.histogram_merged("collector.batch_bytes").count());
  const double collector_frame_events =
      frames > 0 ? static_cast<double>(snapshot.counter_total("collector.records_published")) / frames
                 : 0;
  std::uint64_t persisted = 0, groups = 0;
  for (std::size_t k = 0; k < pl->monitor->sharded().shard_count(); ++k) {
    persisted += pl->monitor->sharded().shard(k).persisted();
    groups += pl->monitor->sharded().shard(k).commit_groups();
  }
  const auto op_stat = tracer.stat("lustre.op", 2);

  ProbeInputs inputs{pl->fs,
                     pl->ops,
                     *pl->monitor,
                     pl->rules,
                     cfg.workdir / "probes",
                     cfg.probe_ops,
                     static_cast<std::size_t>(std::max(1.0, collector_frame_events + 0.5)),
                     cfg.hop_iterations};
  tracer.set_trace(3);
  std::map<std::string, double> probe;
  {
    ScopedSpan probes(&tracer, "probes");
    probe = run_layer_probes(inputs, tracer, probes.id());
  }
  pl.reset();
  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir / "round2", ec);
  std::filesystem::remove_all(cfg.workdir / "probes", ec);

  const double ledger_sum = probe["collector.drain_ns_per_event"] +
                            probe["aggregator.drain_ns_per_event"] +
                            probe["core.decode_ns_per_event"] + probe["hub.match_ns_per_event"];
  const double traced_eps = headline_eps(cfg, traced);
  const std::vector<Metric> metrics = {
      {"lustre.op_ns", op_stat.count > 0 ? static_cast<double>(op_stat.total_ns) /
                                               static_cast<double>(op_stat.count)
                                         : 0,
       "ns"},
      {"lustre.changelog_read_ns_per_record", probe["lustre.changelog_read_ns_per_record"], "ns"},
      {"lustre.fid2path_ns", probe["lustre.fid2path_ns"], "ns"},
      {"collector.drain_ns_per_event", probe["collector.drain_ns_per_event"], "ns"},
      {"collector.fidcache_hit_ratio", probe["collector.fidcache_hit_ratio"], "ratio"},
      {"collector.fidcache_lookups", probe["collector.fidcache_lookups"], "count"},
      {"collector.frame_events", collector_frame_events, "events"},
      {"core.encode_ns_per_event", probe["core.encode_ns_per_event"], "ns"},
      {"core.decode_ns_per_event", probe["core.decode_ns_per_event"], "ns"},
      {"transport.tcp_hop_us", probe["transport.tcp_hop_us"], "us"},
      {"transport.inproc_hop_us", probe["transport.inproc_hop_us"], "us"},
      {"aggregator.drain_ns_per_event", probe["aggregator.drain_ns_per_event"], "ns"},
      {"aggregator.group_events",
       groups > 0 ? static_cast<double>(persisted) / static_cast<double>(groups) : 0, "events"},
      {"aggregator.fanout_lag_us_p99",
       snapshot.histogram_merged("aggregator.fanout_lag_us").quantile(0.99), "us"},
      {"eventstore.append_ns_per_event", probe["eventstore.append_ns_per_event"], "ns"},
      {"eventstore.replay_ns_per_event", probe["eventstore.replay_ns_per_event"], "ns"},
      {"eventstore.merge_ns_per_event", probe["eventstore.merge_ns_per_event"], "ns"},
      {"hub.match_ns_per_event", probe["hub.match_ns_per_event"], "ns"},
      {"hub.demotions", static_cast<double>(snapshot.counter_total("flow.demotions")), "count"},
      {"consumer.frame_events",
       traced.all_batches > 0 ? static_cast<double>(traced.timed_events) /
                                    static_cast<double>(traced.all_batches)
                              : 0,
       "events"},
      {"consumer.replay_ns_per_event", probe["consumer.replay_ns_per_event"], "ns"},
      {"consumer.replay_cpu_ns_per_event", replay_cpu_ns_per_event(traced), "ns"},
      {"ledger.sum_ns_per_event", ledger_sum, "ns"},
      {"ledger.gap_ns_per_event", (traced_eps > 0 ? 1e9 / traced_eps : 0) - ledger_sum, "ns"},
      {"ledger.cpu_gap_ns_per_event", traced.cpu_us_per_event * 1e3 - ledger_sum, "ns"},
      {"trace.overhead_cpu_pct",
       plain.cpu_us_per_event > 0 ? (traced.cpu_us_per_event / plain.cpu_us_per_event - 1) * 100
                                  : 0,
       "%"},
      {"trace.overhead_throughput_pct",
       traced_eps > 0 ? (headline_eps(cfg, plain) / traced_eps - 1) * 100 : 0, "%"},
      {"trace.spans", static_cast<double>(tracer.size()), "count"},
      {"gen.late_p99_ms", traced.gen_late_p99_ms, "ms"},
      {"e2e.latency_samples", static_cast<double>(traced.latency_samples), "count"},
  };

  for (const auto& [name, value] : probe) std::printf("# probe %-40s %14.3f\n", name.c_str(), value);
  std::printf("# span                                    count      total_ms       self_ms   ns/item\n");
  for (const auto& name : tracer.names()) {
    const auto s = tracer.stat(name);
    std::printf("# %-36s %9llu %13.3f %13.3f %9.1f\n", name.c_str(),
                static_cast<unsigned long long>(s.count), static_cast<double>(s.total_ns) / 1e6,
                static_cast<double>(s.self_ns) / 1e6, s.ns_per_item());
  }
  if (!cfg.trace_out.empty()) {
    std::filesystem::create_directories(cfg.trace_out.parent_path(), ec);
    if (tracer.write_jsonl(cfg.trace_out))
      std::printf("# spans written: %s (%zu)\n", cfg.trace_out.c_str(), tracer.size());
  }
  const std::uint64_t attempted = warmup.attempted + plain.attempted + traced.attempted;
  const std::uint64_t failed = warmup.failed + plain.failed + traced.failed;
  std::printf("# failed_frac = %.6g (%llu of %llu)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  print_result(failed == 0 && warmup.completed && plain.completed && traced.completed, attempted,
               failed, metrics);
  return 0;
}

/// Checks that the correctness reference notices a lost and a duplicated
/// event on every stream it judges.
int run_self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("# self-test %-52s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  {
    StreamLedger ledger(8);
    ledger.expect({0, 1, kind_bit(EventKind::kCreate), 0}, 1);
    ledger.expect({1, 1, static_cast<std::uint8_t>(kind_bit(EventKind::kMovedFrom) |
                                                   kind_bit(EventKind::kMovedTo)),
                   1},
                  1);
    ledger.receive(0, 1, EventKind::kCreate, 5);
    ledger.receive(1, 1, EventKind::kMovedFrom, 5);
    expect(ledger.failures() == 1, "catch-all: lost rename half detected");
    ledger.receive(1, 1, EventKind::kMovedTo, 6);
    expect(ledger.failures() == 0, "catch-all: complete stream passes");
    ledger.receive(0, 1, EventKind::kCreate, 7);
    expect(ledger.failures() == 1, "catch-all: duplicated event detected");
    ledger.receive(2, 5, EventKind::kDelete, 7);
    expect(ledger.failures() == 2, "catch-all: unexpected event detected");
  }
  {
    std::vector<StdEvent> stream(3);
    stream[0].path = "/p00/f1";
    stream[1].path = "/p01/f2";
    stream[2].path = std::string(fsmon::core::kParentDirectoryRemoved);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      stream[i].source = "lustre:MDT" + std::to_string(i);
      stream[i].cookie = i + 1;
    }
    std::vector<std::vector<FilterRule>> rules(2);
    rules[0].emplace_back().root = project_root(0);
    rules[1].emplace_back().root = project_root(1);
    auto keys = [&](const StdEvent& e) { return event_key(mdt_of(e.source), e.kind, e.cookie); };
    std::vector<std::vector<std::uint64_t>> good{{keys(stream[0])}, {keys(stream[1])}};
    expect(check_projects(stream, rules, good).failed == 0, "projects: exact streams pass");
    std::vector<std::vector<std::uint64_t>> lost{{}, {keys(stream[1])}};
    expect(check_projects(stream, rules, lost).failed == 1, "projects: lost event detected");
    std::vector<std::vector<std::uint64_t>> dup{{keys(stream[0]), keys(stream[0])},
                                                {keys(stream[1])}};
    expect(check_projects(stream, rules, dup).failed == 1, "projects: duplicated event detected");
    std::vector<std::vector<std::uint64_t>> stray{{keys(stream[0]), keys(stream[2])},
                                                  {keys(stream[1])}};
    expect(check_projects(stream, rules, stray).failed == 1, "projects: unmatched event detected");
  }
  {
    auto pass = [](std::vector<std::pair<std::uint64_t, EventKind>> seq, std::uint64_t floor) {
      ReplayPassCheck check;
      check.start({floor, 0, 0, 0});
      for (const auto& [cookie, kind] : seq) {
        StdEvent e;
        e.source = "lustre:MDT0";
        e.cookie = cookie;
        e.kind = kind;
        check.on_event(e);
      }
      check.finish();
      return check.errors();
    };
    using K = EventKind;
    expect(pass({{1, K::kCreate}, {2, K::kMovedFrom}, {2, K::kMovedTo}, {3, K::kClose}}, 4) == 0,
           "replay: dense pass passes");
    expect(pass({{1, K::kCreate}, {3, K::kClose}}, 2) > 0, "replay: lost record detected");
    expect(pass({{1, K::kCreate}, {1, K::kCreate}, {2, K::kClose}}, 3) > 0,
           "replay: duplicated record detected");
    expect(pass({{1, K::kCreate}}, 2) > 0, "replay: short pass detected");
  }
  std::printf("# self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload {drain_inproc|live_tcp|catchup_inproc} "
               "--seed N --seconds S --trace {0|1} [--smoke] [--workdir DIR] "
               "[--trace-out FILE] [--commit ID]\n"
               "       pipeline_bench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  bool smoke = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--self-test") return run_self_test();
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload") {
      cfg.workload_name = value();
      have_workload = true;
      if (cfg.workload_name == "drain_inproc") cfg.workload = Workload::kDrain;
      else if (cfg.workload_name == "live_tcp") cfg.workload = Workload::kLiveTcp;
      else if (cfg.workload_name == "catchup_inproc") cfg.workload = Workload::kCatchup;
      else return usage();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--workdir") {
      cfg.workdir = value();
    } else if (arg == "--trace-out") {
      cfg.trace_out = value();
    } else if (arg == "--commit") {
      cfg.commit = value();
    } else {
      return usage();
    }
  }
  if (!have_workload || cfg.seconds <= 0) return usage();
  if (smoke) {
    cfg.files_per_project = 5;
    cfg.backlog_ops = 3000;
    cfg.rate_ops = 2000;
    cfg.phase_s = 0.3;
    cfg.min_rounds = 2;
    cfg.probe_ops = 2000;
    cfg.hop_iterations = 10;
    cfg.seconds = std::min(cfg.seconds, 1.0);
  } else {
    cfg.phase_s = std::max(0.5, cfg.seconds / 16);
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", cfg.workdir.c_str(), ec.message().c_str());
    return 2;
  }
  if (cfg.workload == Workload::kCatchup) {
    // The replay thread gets a CPU of its own and the pipeline (every
    // thread started from here on) the others, so how they share cores
    // does not change from round to round.
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0 && CPU_COUNT(&allowed) >= 2) {
      for (int c = CPU_SETSIZE - 1; c >= 0 && cfg.replay_cpu < 0; --c)
        if (CPU_ISSET(c, &allowed)) cfg.replay_cpu = c;
      CPU_CLR(cfg.replay_cpu, &allowed);
      pin_thread(allowed);
    }
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d nproc=%u "
              "build=%s carrier=%s store_fs=%s replay_cpu=%d commit=%s\n",
              cfg.workload_name.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, smoke ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, cfg.workload == Workload::kLiveTcp ? "tcp" : "inproc",
              filesystem_name(cfg.workdir).c_str(), cfg.replay_cpu, cfg.commit.c_str());
  std::printf("# topology: %d MDTs, %d aggregator shards, hub with %d subscribers "
              "(%d project subtrees + all)%s\n",
              kMdts, kMdts, kWatchedProjects + 1, kWatchedProjects,
              cfg.workload == Workload::kCatchup ? ", plus one late replaying consumer" : "");
  std::fflush(stdout);
  const auto ticks0 = host_cpu_ticks();
  const int rc = cfg.trace ? run_traced(cfg) : run_e2e(cfg);
  const auto ticks1 = host_cpu_ticks();
  // On a virtual machine, time the hypervisor kept the vCPUs from running
  // shows up as steal; wakeup latency and so the latency tails grow with it.
  const double total = static_cast<double>((ticks1[0] + ticks1[1] + ticks1[2]) -
                                           (ticks0[0] + ticks0[1] + ticks0[2]));
  if (total > 0)
    std::fprintf(stderr, "# host cpu during the run: busy %.1f%%, steal %.1f%%\n",
                 100.0 * static_cast<double>(ticks1[0] - ticks0[0]) / total,
                 100.0 * static_cast<double>(ticks1[2] - ticks0[2]) / total);
  std::filesystem::remove_all(cfg.workdir, ec);
  return rc;
}
