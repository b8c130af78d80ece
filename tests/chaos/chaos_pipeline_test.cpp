// Chaos verification harness (the crash-recovery subsystem's acceptance
// test): run a randomized workload over the full collector -> aggregator
// -> consumer pipeline while stages crash — either explicitly or through
// seeded fault schedules — restart every crashed stage, then assert
// exactly-once delivery: zero lost and zero duplicate events, both in
// the reliable store and at the consumer callback.
//
// Identity that survives recovery is (source, cookie, kind): a record
// that died unpersisted with the aggregator is re-published under a
// fresh id, but the cookie is the changelog record index, unique per
// MDT, and a rename record is the only one emitting two events
// (distinct kinds) for one cookie.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
#include "src/common/random.hpp"
#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::scalable {
namespace {

using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

struct EventKey {
  std::string source;
  std::uint64_t cookie = 0;
  int kind = 0;

  bool operator<(const EventKey& other) const {
    return std::tie(source, cookie, kind) <
           std::tie(other.source, other.cookie, other.kind);
  }
  bool operator==(const EventKey& other) const = default;
};

using KeyCounts = std::map<EventKey, int>;

EventKey key_of(const StdEvent& event) {
  return EventKey{event.source, event.cookie, static_cast<int>(event.kind)};
}

/// Seeded random mix of creates / renames / unlinks / mkdirs across a
/// set of directories (DNE hashing spreads them over the MDTs).
class ChaosWorkload {
 public:
  ChaosWorkload(LustreFs& fs, std::uint64_t seed) : fs_(fs), rng_(seed) {
    for (int i = 0; i < 8; ++i) {
      const std::string dir = "/d" + std::to_string(i);
      if (fs_.mkdir(dir).is_ok()) dirs_.push_back(dir);
    }
  }

  void step() {
    const double p = rng_.next_double();
    if (p < 0.6 || live_.empty()) {
      const std::string path =
          dirs_[rng_.next_below(dirs_.size())] + "/f" + std::to_string(next_++);
      if (fs_.create(path).is_ok()) live_.push_back(path);
    } else if (p < 0.75) {
      const std::size_t victim = rng_.next_below(live_.size());
      const std::string to =
          dirs_[rng_.next_below(dirs_.size())] + "/r" + std::to_string(next_++);
      if (fs_.rename(live_[victim], to).is_ok()) live_[victim] = to;
    } else if (p < 0.9) {
      const std::size_t victim = rng_.next_below(live_.size());
      if (fs_.unlink(live_[victim]).is_ok()) {
        live_[victim] = live_.back();
        live_.pop_back();
      }
    } else {
      fs_.mkdir("/m" + std::to_string(next_++));
    }
  }

 private:
  LustreFs& fs_;
  common::Rng rng_;
  std::vector<std::string> dirs_;
  std::vector<std::string> live_;
  int next_ = 0;
};

class ChaosPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_chaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    chaos::FaultInjector::instance().disarm();
    std::filesystem::remove_all(dir_);
  }

  ScalableMonitorOptions options(const std::filesystem::path& store_dir) {
    ScalableMonitorOptions o;
    eventstore::EventStoreOptions store;
    store.directory = store_dir;
    o.aggregator.store = store;
    return o;
  }

  /// The chaos babysitter: a real deployment's supervisor. Any stage the
  /// fault schedule (or the test) crashed gets restarted.
  void babysit(ScalableMonitor& monitor) {
    for (std::size_t i = 0; i < monitor.collector_count(); ++i) {
      if (monitor.collector(i).crashed()) {
        EXPECT_TRUE(monitor.restart_collector(i).is_ok());
      }
    }
    if (monitor.aggregator().crashed()) {
      EXPECT_TRUE(monitor.restart_aggregator().is_ok());
    }
  }

  void run_with_babysitter(ScalableMonitor& monitor, ChaosWorkload& workload,
                           int ops) {
    for (int i = 0; i < ops; ++i) {
      workload.step();
      if (i % 4 == 3) {
        babysit(monitor);
        // Let the pipeline make progress so fault points are actually hit
        // while the workload is still producing records.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Disarm faults, restart anything still down, and wait until every
  /// changelog is fully acknowledged and cleared (nothing in flight).
  void settle(ScalableMonitor& monitor, LustreFs& fs) {
    chaos::FaultInjector::instance().disarm();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      babysit(monitor);
      bool cleared = true;
      for (std::uint32_t i = 0; i < fs.mdt_count(); ++i) {
        if (fs.mds(i).mdt().changelog().retained() != 0) {
          cleared = false;
          break;
        }
      }
      if (cleared) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::string retained;
    for (std::uint32_t i = 0; i < fs.mdt_count(); ++i)
      retained += " MDT" + std::to_string(i) + "=" +
                  std::to_string(fs.mds(i).mdt().changelog().retained());
    FAIL() << "pipeline did not settle; retained records:" << retained;
  }

  KeyCounts collect_store(ScalableMonitor& monitor) {
    KeyCounts counts;
    auto events = monitor.aggregator().events_since(0);
    EXPECT_TRUE(events.is_ok()) << events.status().to_string();
    if (!events.is_ok()) return counts;
    for (const auto& event : events.value()) ++counts[key_of(event)];
    return counts;
  }

  /// Zero duplicates: no (source, cookie, kind) seen twice. Zero lost:
  /// every changelog record index of every MDT surfaced at least once.
  void verify_exactly_once(const KeyCounts& observed, LustreFs& fs,
                           const std::string& what) {
    for (const auto& [key, count] : observed) {
      EXPECT_EQ(count, 1) << what << ": (" << key.source << ", cookie " << key.cookie
                          << ", kind " << key.kind << ") seen " << count << " times";
    }
    for (std::uint32_t i = 0; i < fs.mdt_count(); ++i) {
      const std::string source = "lustre:MDT" + std::to_string(i);
      std::set<std::uint64_t> seen;
      for (const auto& [key, count] : observed) {
        if (key.source == source) seen.insert(key.cookie);
      }
      const std::uint64_t last = fs.mds(i).mdt().changelog().last_index();
      for (std::uint64_t cookie = 1; cookie <= last; ++cookie) {
        EXPECT_TRUE(seen.count(cookie) > 0)
            << what << " lost " << source << " record " << cookie;
      }
      EXPECT_EQ(seen.size(), last) << what << ": " << source;
    }
  }

  void wait_until(const std::function<bool()>& predicate) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!predicate() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(predicate());
  }

  std::filesystem::path dir_;
  common::RealClock clock_;
};

/// Shared tail of every scenario: settle, then check the store and the
/// consumer both saw exactly the changelog, exactly once.
///
/// The store/consumer cross-check is (source, cookie)-granular, not
/// per-kind: re-processing a record after a crash can legitimately
/// change the event *shape* (a rename whose paths no longer both
/// resolve emits one fallback event instead of two), so the consumer —
/// which saw the pre-crash publication — may hold a different kind set
/// for a record than the store, which persisted the re-publication.
/// Exactly-once is per record either way.
#define VERIFY_PIPELINE(monitor, fs, consumer_counts, consumer_mu)                \
  do {                                                                            \
    settle(monitor, fs);                                                          \
    const KeyCounts store_counts = collect_store(monitor);                        \
    verify_exactly_once(store_counts, fs, "store");                               \
    std::set<std::pair<std::string, std::uint64_t>> store_pairs;                  \
    for (const auto& [key, count] : store_counts)                                 \
      store_pairs.emplace(key.source, key.cookie);                                \
    wait_until([&] {                                                              \
      std::lock_guard lock(consumer_mu);                                          \
      std::set<std::pair<std::string, std::uint64_t>> pairs;                      \
      for (const auto& [key, count] : consumer_counts)                            \
        pairs.emplace(key.source, key.cookie);                                    \
      return pairs.size() >= store_pairs.size();                                  \
    });                                                                           \
    std::lock_guard lock(consumer_mu);                                            \
    verify_exactly_once(consumer_counts, fs, "consumer");                         \
    std::set<std::pair<std::string, std::uint64_t>> consumer_pairs;               \
    for (const auto& [key, count] : consumer_counts)                              \
      consumer_pairs.emplace(key.source, key.cookie);                             \
    EXPECT_EQ(consumer_pairs, store_pairs);                                       \
  } while (0)

TEST_F(ChaosPipelineTest, CollectorCrashAndRestartIsExactlyOnce) {
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock_);
  ScalableMonitor monitor(fs, options(dir_), clock_);
  std::mutex mu;
  KeyCounts delivered;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  ChaosWorkload workload(fs, 42);
  for (int i = 0; i < 50; ++i) workload.step();
  for (std::size_t i = 0; i < monitor.collector_count(); ++i)
    monitor.crash_collector(i);
  // Records written while every collector is down are retained by the
  // changelog and re-read after restart.
  for (int i = 0; i < 50; ++i) workload.step();
  for (std::size_t i = 0; i < monitor.collector_count(); ++i)
    ASSERT_TRUE(monitor.restart_collector(i).is_ok());
  for (int i = 0; i < 50; ++i) workload.step();

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  consumer->stop();
  monitor.stop();
}

TEST_F(ChaosPipelineTest, AggregatorCrashAndRestartIsExactlyOnce) {
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock_);
  ScalableMonitor monitor(fs, options(dir_), clock_);
  std::mutex mu;
  KeyCounts delivered;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  ChaosWorkload workload(fs, 7);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 40; ++i) workload.step();
    // Crash with frames buffered: everything unpersisted is lost with the
    // process and must be re-published by the rewound collectors.
    monitor.crash_aggregator();
    for (int i = 0; i < 20; ++i) workload.step();
    ASSERT_TRUE(monitor.restart_aggregator().is_ok());
  }
  for (int i = 0; i < 40; ++i) workload.step();

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  consumer->stop();
  monitor.stop();
}

TEST_F(ChaosPipelineTest, ConsumerCrashAndRestartIsExactlyOnce) {
  LustreFsOptions fs_options;
  fs_options.mdt_count = 2;
  LustreFs fs(fs_options, clock_);
  ScalableMonitor monitor(fs, options(dir_), clock_);
  std::mutex mu;
  KeyCounts delivered;
  ConsumerOptions consumer_options;
  // Ack every batch so the replay window after a crash starts exactly at
  // the last delivered batch (no delivered-but-unacked tail to repeat).
  consumer_options.ack_interval = 1;
  auto consumer =
      monitor.make_consumer("c", consumer_options, [&](const StdEvent& e) {
        std::lock_guard lock(mu);
        ++delivered[key_of(e)];
      });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  ChaosWorkload workload(fs, 9);
  for (int i = 0; i < 40; ++i) workload.step();
  wait_until([&] { return consumer->delivered() > 0; });
  consumer->crash();
  // Everything fanned out while the consumer is down misses its inbox;
  // restart() replays it from the reliable store. Quiesce first: replay
  // reads the store, so the outage's events must be persisted (= acked,
  // = cleared) before the restart for the store to cover them.
  for (int i = 0; i < 40; ++i) workload.step();
  wait_until([&] {
    for (std::uint32_t i = 0; i < fs.mdt_count(); ++i) {
      if (fs.mds(i).mdt().changelog().retained() != 0) return false;
    }
    return true;
  });
  ASSERT_TRUE(consumer->restart().is_ok());
  for (int i = 0; i < 40; ++i) workload.step();

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  consumer->stop();
  monitor.stop();
}

TEST_F(ChaosPipelineTest, TornPersistCrashRecoversExactlyOnce) {
  LustreFsOptions fs_options;
  fs_options.mdt_count = 2;
  LustreFs fs(fs_options, clock_);
  ScalableMonitor monitor(fs, options(dir_), clock_);
  std::mutex mu;
  KeyCounts delivered;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  // A torn WAL write fails the persist, which fail-stops the aggregator;
  // the babysitter restarts it and recovery truncates the torn tail.
  chaos::FaultPlan plan;
  plan.seed = 5;
  chaos::FaultRule torn;
  torn.point = "wal.torn_write";
  torn.action = chaos::FaultAction::kFail;
  torn.after_hits = 2;
  torn.max_fires = 1;
  plan.rules.push_back(torn);
  chaos::FaultInjector::instance().arm(std::move(plan));

  ChaosWorkload workload(fs, 11);
  run_with_babysitter(monitor, workload, 120);
  const std::uint64_t torn_fires = chaos::FaultInjector::instance().fires("wal.torn_write");

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  EXPECT_EQ(torn_fires, 1u);
  consumer->stop();
  monitor.stop();
}

/// One MDT whose 20 creates all join one commit group that tears:
/// `keep` of the group's 2-record batches stay durable, none is sent or
/// acked. Returns once the shard has fail-stopped, after checking that
/// the consumer has seen nothing of the group.
void torn_group_before_restart(ScalableMonitor& monitor, LustreFs& fs, Consumer& consumer,
                               std::mutex& mu, const KeyCounts& delivered,
                               std::uint64_t keep) {
  chaos::FaultPlan plan;
  chaos::FaultRule torn;
  torn.point = "wal.group_commit_torn";
  torn.action = chaos::FaultAction::kCrash;
  torn.arg = keep;
  torn.max_fires = 1;
  plan.rules.push_back(torn);
  chaos::FaultInjector::instance().arm(std::move(plan));
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer.start().is_ok());
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(fs.create("/d/f" + std::to_string(i)).is_ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!monitor.aggregator().crashed() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(monitor.aggregator().crashed());
  EXPECT_EQ(chaos::FaultInjector::instance().fires("wal.group_commit_torn"), 1u);
  chaos::FaultInjector::instance().disarm();
  // Give a wrongly sent frame time to arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::lock_guard lock(mu);
  EXPECT_EQ(delivered.size(), 1u) << "the consumer saw records of the torn group";
}

/// Every record the consumer got carries the id the store holds for it.
void expect_store_ids(ScalableMonitor& monitor, std::mutex& mu,
                      const std::map<EventKey, common::EventId>& ids) {
  auto stored = monitor.aggregator().events_since(0);
  ASSERT_TRUE(stored.is_ok()) << stored.status().to_string();
  std::lock_guard lock(mu);
  EXPECT_EQ(ids.size(), stored.value().size());
  for (const StdEvent& event : stored.value()) {
    auto it = ids.find(key_of(event));
    ASSERT_NE(it, ids.end()) << "cookie " << event.cookie << " never delivered";
    EXPECT_EQ(it->second, event.id) << "cookie " << event.cookie;
  }
}

TEST_F(ChaosPipelineTest, TornGroupPrefixReachesConsumerUnderStoreIds) {
  // Fan-out runs after the WAL commit. A torn commit keeps the group's
  // first batch durable and fail-stops the shard before sending any of
  // it, so the consumer sees nothing of the group. After the restart the
  // hub fills the durable prefix from the store under the ids the store
  // holds, and the rewound collector's re-publication of the rest takes
  // the ids above it: each record arrives exactly once.
  LustreFs fs(LustreFsOptions{}, clock_);
  ScalableMonitorOptions o = options(dir_);
  o.collector.publish_batch = 2;  // several frames per commit group
  // Wide enough that every frame joins the first group, even under load.
  o.aggregator.wal_group_commit_us = std::chrono::milliseconds(500);
  ScalableMonitor monitor(fs, o, clock_);
  std::mutex mu;
  KeyCounts delivered;
  std::map<EventKey, common::EventId> ids;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
    ids[key_of(e)] = e.id;
  });
  ASSERT_TRUE(fs.mkdir("/d").is_ok());
  monitor.drain_collectors_once();  // the mkdir is durable before the fault
  torn_group_before_restart(monitor, fs, *consumer, mu, delivered, /*keep=*/1);
  const common::EventId prefix_end = monitor.aggregator().store()->last_id();
  EXPECT_EQ(prefix_end, 3u) << "the mkdir plus one 2-record batch";

  ASSERT_TRUE(monitor.restart_aggregator().is_ok());
  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  expect_store_ids(monitor, mu, ids);
  consumer->stop();
  monitor.stop();
}

TEST_F(ChaosPipelineTest, DurableGroupWithNoLaterFrameReachesConsumerOnRestart) {
  // The whole torn group is durable, and the collector is down, so no
  // later frame reaches the shard to open the gap at the hub. Only the
  // restart's own fill can deliver the group.
  LustreFs fs(LustreFsOptions{}, clock_);
  ScalableMonitorOptions o = options(dir_);
  o.collector.publish_batch = 2;
  o.aggregator.wal_group_commit_us = std::chrono::milliseconds(500);
  ScalableMonitor monitor(fs, o, clock_);
  std::mutex mu;
  KeyCounts delivered;
  std::map<EventKey, common::EventId> ids;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
    ids[key_of(e)] = e.id;
  });
  ASSERT_TRUE(fs.mkdir("/d").is_ok());
  monitor.drain_collectors_once();
  torn_group_before_restart(monitor, fs, *consumer, mu, delivered, /*keep=*/1000);
  EXPECT_EQ(monitor.aggregator().store()->last_id(), 21u) << "the mkdir plus 20 creates";
  monitor.crash_collector(0);
  const std::uint64_t frames_before = monitor.hub().frames_pumped();

  ASSERT_TRUE(monitor.restart_aggregator().is_ok());
  wait_until([&] {
    std::lock_guard lock(mu);
    return delivered.size() == 21;
  });
  EXPECT_EQ(monitor.hub().frames_pumped(), frames_before) << "a frame reached the hub";
  ASSERT_TRUE(monitor.restart_collector(0).is_ok());
  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  expect_store_ids(monitor, mu, ids);
  consumer->stop();
  monitor.stop();
}

TEST_F(ChaosPipelineTest, SeededFaultScheduleSweepIsExactlyOnce) {
  // One seed per FSMON_CHAOS_SEED when set (tools/run_tier1.sh --chaos N
  // sweeps 1..N); a small built-in sweep otherwise.
  std::vector<std::uint64_t> seeds{1, 2, 3};
  if (const char* env = std::getenv("FSMON_CHAOS_SEED")) {
    seeds.assign(1, std::strtoull(env, nullptr, 10));
  }
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto store_dir = dir_ / ("seed" + std::to_string(seed));
    LustreFsOptions fs_options;
    fs_options.mdt_count = 4;
    LustreFs fs(fs_options, clock_);
    ScalableMonitor monitor(fs, options(store_dir), clock_);
    std::mutex mu;
    KeyCounts delivered;
    auto consumer =
        monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
          std::lock_guard lock(mu);
          ++delivered[key_of(e)];
        });
    ASSERT_TRUE(monitor.start().is_ok());
    ASSERT_TRUE(consumer->start().is_ok());

    // The fault schedule derives from the seed: collector and aggregator
    // crashes at seed-varied points, a torn WAL write, flaky changelog
    // clears, and jittered publish delays — all deterministic per seed.
    chaos::FaultPlan plan;
    plan.seed = seed;
    chaos::FaultRule rule;
    rule.point = "collector.before_publish";
    rule.action = chaos::FaultAction::kCrash;
    rule.after_hits = 2 + seed % 5;
    rule.probability = 0.5;
    rule.max_fires = 2;
    plan.rules.push_back(rule);
    rule = {};
    rule.point = "aggregator.before_persist";
    rule.action = chaos::FaultAction::kCrash;
    rule.after_hits = 1 + seed % 7;
    rule.probability = 0.5;
    rule.max_fires = 2;
    plan.rules.push_back(rule);
    rule = {};
    rule.point = "wal.torn_write";
    rule.action = chaos::FaultAction::kFail;
    rule.after_hits = 3 + seed % 11;
    rule.max_fires = 1;
    plan.rules.push_back(rule);
    rule = {};
    rule.point = "collector.clear";
    rule.action = chaos::FaultAction::kFail;
    rule.probability = 0.3;
    rule.max_fires = 0;
    plan.rules.push_back(rule);
    rule = {};
    rule.point = "aggregator.before_publish";
    rule.action = chaos::FaultAction::kDelay;
    rule.delay = std::chrono::milliseconds(1);
    rule.probability = 0.05;
    rule.max_fires = 0;
    plan.rules.push_back(rule);
    chaos::FaultInjector::instance().arm(std::move(plan));

    ChaosWorkload workload(fs, seed * 1000 + 17);
    run_with_babysitter(monitor, workload, 240);

    VERIFY_PIPELINE(monitor, fs, delivered, mu);
    consumer->stop();
    monitor.stop();
  }
}

}  // namespace
}  // namespace fsmon::scalable
