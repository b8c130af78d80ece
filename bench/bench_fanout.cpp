// Fan-out scaling bench: shared subscription index vs per-consumer rule
// evaluation, plus the slow-consumer isolation check.
//
// Part 1 — matcher sweep. Filtering at each consumer evaluates every
// subscriber's rule set against every event: O(subscribers x events)
// regardless of how many events actually match. The SubscriptionIndex
// walks the path trie once per event and yields subscriber-id bitsets,
// so cost grows with MATCHED deliveries, not subscriber count. The
// sweep holds the matched volume fixed (a constant pool of 10 "hot"
// subscribers matches the hot events; every other subscriber watches a
// disjoint cold subtree that the workload never touches) and scales the
// subscriber count 10 -> 10k across match fractions. Fails (exit 1) if
// the index's per-event cost at 10k subscribers exceeds 2x its cost at
// 10 subscribers for any fraction.
//
// Part 2 — stalled-consumer isolation. A FanOutHub pipeline runs the
// same workload in two arms: healthy consumers only, and with a
// deliberately stalled sibling (its callback blocks until the run
// ends). Credit-based flow control must demote the stalled consumer
// instead of letting its back-pressure stall the shared pump. The arms
// run in 5 interleaved pairs, alternating which goes first; fails if
// the median pair's healthy aggregate throughput with the stalled
// sibling drops below 0.9x its baseline. (A single pair spread about
// 1.75x from run to run, so a one-shot ratio measured noise.)
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/lustre/filesystem.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/scalable/sub_index.hpp"

namespace fsmon {
namespace {

using core::CompiledRule;
using core::FilterRule;
using core::StdEvent;
using scalable::DeliverySet;
using scalable::SubscriptionIndex;

constexpr std::size_t kBatchEvents = 512;
constexpr std::size_t kHotMatchers = 10;  // fixed matched volume

struct SweepResult {
  std::size_t subscribers = 0;
  double match_fraction = 0;
  double index_ns_per_event = 0;
  double legacy_ns_per_event = 0;
  std::uint64_t deliveries_per_batch = 0;
};

std::vector<StdEvent> make_batch(double match_fraction) {
  std::vector<StdEvent> events;
  events.reserve(kBatchEvents);
  const auto hot_every =
      match_fraction <= 0 ? kBatchEvents + 1
                          : static_cast<std::size_t>(1.0 / match_fraction);
  for (std::size_t i = 0; i < kBatchEvents; ++i) {
    StdEvent event;
    event.kind = core::EventKind::kCreate;
    event.path = (i % hot_every == 0)
                     ? "/hot/run" + std::to_string(i % 7) + "/f" + std::to_string(i)
                     : "/quiet/d" + std::to_string(i % 31) + "/f" + std::to_string(i);
    events.push_back(std::move(event));
  }
  return events;
}

SweepResult run_sweep(std::size_t subscribers, double match_fraction) {
  // The fixed hot pool matches every hot event; the rest of the
  // population watches cold subtrees the workload never touches, so the
  // matched volume is identical at every subscriber count.
  SubscriptionIndex index;
  std::vector<std::vector<FilterRule>> rule_sets(subscribers);
  for (std::size_t s = 0; s < subscribers; ++s) {
    FilterRule rule;
    rule.root = s < kHotMatchers ? "/hot" : "/cold/s" + std::to_string(s);
    rule_sets[s].push_back(rule);
    const CompiledRule compiled = CompiledRule::compile(rule);
    index.add_subscriber(std::span<const CompiledRule>(&compiled, 1));
  }
  const std::vector<StdEvent> events = make_batch(match_fraction);

  SweepResult result;
  result.subscribers = subscribers;
  result.match_fraction = match_fraction;

  // Index path: one trie evaluation per batch, reused DeliverySet.
  DeliverySet out;
  index.match_batch(events, out);  // warm-up
  for (const auto id : out.touched())
    result.deliveries_per_batch += out.indices_for(id).size();
  constexpr int kIndexIters = 2000;
  const auto index_start = std::chrono::steady_clock::now();
  for (int iter = 0; iter < kIndexIters; ++iter) index.match_batch(events, out);
  const auto index_done = std::chrono::steady_clock::now();
  result.index_ns_per_event =
      std::chrono::duration<double, std::nano>(index_done - index_start).count() /
      (static_cast<double>(kIndexIters) * kBatchEvents);

  // Per-consumer path: every subscriber evaluates its rule set against every
  // event. Iterations shrink with the subscriber count so the bench
  // stays bounded; per-event cost is what is reported.
  const int legacy_iters =
      std::max(1, static_cast<int>(20000 / std::max<std::size_t>(subscribers, 1)));
  const auto legacy_start = std::chrono::steady_clock::now();
  std::size_t sink = 0;
  for (int iter = 0; iter < legacy_iters; ++iter) {
    for (const auto& rules : rule_sets) {
      for (const auto& event : events) {
        if (core::matches_any(rules, event)) ++sink;
      }
    }
  }
  const auto legacy_done = std::chrono::steady_clock::now();
  if (sink == 0) std::printf("");  // keep the loop observable
  result.legacy_ns_per_event =
      std::chrono::duration<double, std::nano>(legacy_done - legacy_start).count() /
      (static_cast<double>(legacy_iters) * kBatchEvents);
  return result;
}

// --- Part 2: stalled-consumer isolation over the real hub pipeline ----

constexpr int kIsolationPairs = 5;

double run_pipeline(const std::filesystem::path& store_dir, bool with_stalled,
                    bool* demoted) {
  common::RealClock clock;
  lustre::LustreFs fs(lustre::LustreFsOptions{}, clock);
  scalable::ScalableMonitorOptions options;
  options.collector.cache_size = 64;
  options.flow.credit_window = 256;
  eventstore::EventStoreOptions store;
  store.directory = store_dir;
  options.aggregator.store = store;
  scalable::ScalableMonitor monitor(fs, options, clock);

  constexpr int kEvents = 4000;
  std::atomic<std::uint64_t> healthy_delivered{0};
  scalable::ConsumerOptions consumer_options;
  consumer_options.ack_interval = 16;
  auto h1 = monitor.make_consumer("h1", consumer_options, [&](const StdEvent&) {
    healthy_delivered.fetch_add(1);
  });
  auto h2 = monitor.make_consumer("h2", consumer_options, [&](const StdEvent&) {
    healthy_delivered.fetch_add(1);
  });

  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::unique_ptr<scalable::Consumer> stalled;
  if (with_stalled) {
    stalled = monitor.make_consumer("stalled", consumer_options, [&](const StdEvent&) {
      std::unique_lock lock(gate_mu);
      gate_cv.wait(lock, [&] { return !gate_closed.load(); });
    });
  }

  (void)monitor.start();
  (void)h1->start();
  (void)h2->start();
  if (stalled != nullptr) (void)stalled->start();

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) (void)fs.create("/f" + std::to_string(i));
  const std::uint64_t expected = 2ull * kEvents;
  const auto deadline = start + std::chrono::seconds(60);
  while (healthy_delivered.load() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto done = std::chrono::steady_clock::now();
  if (demoted != nullptr && stalled != nullptr)
    *demoted = stalled->flow_state() != scalable::FlowState::kLive;

  gate_closed.store(false);
  gate_cv.notify_all();
  h1->stop();
  h2->stop();
  if (stalled != nullptr) stalled->stop();
  monitor.stop();

  const double wall_s = std::chrono::duration<double>(done - start).count();
  return healthy_delivered.load() >= expected ? expected / wall_s : 0.0;
}

}  // namespace
}  // namespace fsmon

int main() {
  using namespace fsmon;

  bench::banner("fan-out: shared subscription index vs per-consumer matching");
  std::printf("%zu-event batches, %zu hot matchers (fixed matched volume)\n",
              kBatchEvents, kHotMatchers);

  const std::vector<std::size_t> counts{10, 100, 1000, 10000};
  const std::vector<double> fractions{0.01, 0.10};
  std::vector<SweepResult> results;
  for (const double fraction : fractions) {
    for (const std::size_t subscribers : counts)
      results.push_back(run_sweep(subscribers, fraction));
  }

  bench::Table table({"subs", "match frac", "deliveries/batch", "index ns/ev",
                      "legacy ns/ev", "index speedup"});
  for (const auto& r : results) {
    table.add_row({std::to_string(r.subscribers), bench::fmt(r.match_fraction, 2),
                   std::to_string(r.deliveries_per_batch),
                   bench::fmt(r.index_ns_per_event, 1),
                   bench::fmt(r.legacy_ns_per_event, 1),
                   bench::fmt(r.legacy_ns_per_event /
                                  std::max(r.index_ns_per_event, 1e-9),
                              1) +
                       "x"});
  }
  table.print();

  // Scaling criterion per fraction: index cost at 10k subs vs 10 subs.
  bool scaling_ok = true;
  std::vector<double> ratios;
  for (const double fraction : fractions) {
    double at10 = 0, at10k = 0;
    for (const auto& r : results) {
      if (r.match_fraction != fraction) continue;
      if (r.subscribers == counts.front()) at10 = r.index_ns_per_event;
      if (r.subscribers == counts.back()) at10k = r.index_ns_per_event;
    }
    const double ratio = at10k / std::max(at10, 1e-9);
    ratios.push_back(ratio);
    std::printf("match fraction %.2f: index cost 10k/10 subscribers = %.2fx\n",
                fraction, ratio);
    if (ratio > 2.0) scaling_ok = false;
  }

  bench::banner("fan-out: stalled-consumer isolation (hub pipeline)");
  const auto root = std::filesystem::temp_directory_path() / "fsmon_bench_fanout";
  std::filesystem::remove_all(root);
  std::vector<double> baselines;
  std::vector<double> stalleds;
  std::vector<double> pair_ratios;
  int demoted_runs = 0;
  bool all_delivered = true;
  for (int pair = 0; pair < kIsolationPairs; ++pair) {
    const std::string tag = std::to_string(pair);
    bool demoted = false;
    double baseline = 0;
    double stalled = 0;
    // Alternate which arm goes first, so drift during the run (cache
    // warmth, a noisy neighbour) lands on both arms alike.
    if (pair % 2 == 0) {
      baseline = run_pipeline(root / ("baseline" + tag), false, nullptr);
      stalled = run_pipeline(root / ("stalled" + tag), true, &demoted);
    } else {
      stalled = run_pipeline(root / ("stalled" + tag), true, &demoted);
      baseline = run_pipeline(root / ("baseline" + tag), false, nullptr);
    }
    if (baseline <= 0 || stalled <= 0) all_delivered = false;
    if (demoted) ++demoted_runs;
    baselines.push_back(baseline);
    stalleds.push_back(stalled);
    pair_ratios.push_back(stalled / std::max(baseline, 1e-9));
    std::printf("pair %d: baseline %.0f ev/s, with stalled sibling %.0f ev/s (%.2fx)\n",
                pair, baseline, stalled, pair_ratios.back());
  }
  std::filesystem::remove_all(root);
  const double baseline_eps = bench::median(baselines);
  const double stalled_eps = bench::median(stalleds);
  const double isolation = bench::median(pair_ratios);
  std::printf(
      "healthy throughput, median of %d pairs: baseline %.0f ev/s, with stalled "
      "sibling %.0f ev/s, pair ratio %.2fx (stalled demoted in %d/%d runs)\n",
      kIsolationPairs, baseline_eps, stalled_eps, isolation, demoted_runs, kIsolationPairs);

  if (std::FILE* out = std::fopen("BENCH_fanout.json", "w")) {
    std::fprintf(out, "{\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(out,
                   "    {\"subscribers\": %zu, \"match_fraction\": %.2f, "
                   "\"deliveries_per_batch\": %llu, \"index_ns_per_event\": %.1f, "
                   "\"legacy_ns_per_event\": %.1f}%s\n",
                   r.subscribers, r.match_fraction,
                   static_cast<unsigned long long>(r.deliveries_per_batch),
                   r.index_ns_per_event, r.legacy_ns_per_event,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"index_cost_ratio_10k_vs_10\": [");
    for (std::size_t i = 0; i < ratios.size(); ++i)
      std::fprintf(out, "%s%.2f", i ? ", " : "", ratios[i]);
    std::fprintf(out, "],\n");
    std::fprintf(out,
                 "  \"stalled_isolation\": {\"pairs\": %d, "
                 "\"baseline_events_per_sec\": %.0f, \"stalled_events_per_sec\": %.0f, "
                 "\"ratio\": %.2f, \"stalled_demoted_runs\": %d}\n}\n",
                 kIsolationPairs, baseline_eps, stalled_eps, isolation, demoted_runs);
    std::fclose(out);
    std::printf("results: BENCH_fanout.json\n");
  }

  if (!scaling_ok) {
    std::printf("FAIL: index per-event cost at 10k subscribers exceeds 2x the "
                "10-subscriber cost\n");
    return 1;
  }
  if (!all_delivered) {
    std::printf("FAIL: a pipeline run did not deliver every event in time\n");
    return 1;
  }
  if (isolation < 0.9) {
    std::printf("FAIL: stalled sibling cut healthy throughput to %.2fx in the "
                "median pair (floor 0.9x)\n", isolation);
    return 1;
  }
  std::printf("fan-out scaling and stalled-consumer isolation criteria met\n");
  return 0;
}
