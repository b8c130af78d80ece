// Transport-layer chaos: the exactly-once pipeline guarantees must hold
// no matter which carrier the stages ride. The 4-shard crash/restart
// sweep, a consumer crash/restart and the refused-send rewind protocol
// run identically over the in-process bus, the shared-memory rings and
// TCP sockets; the transport.shm.full lever turns ring backpressure into
// a refusal instead of a stuck sender; and a torn WAL group commit
// (wal.group_commit_torn) must ack NOTHING in the crashed group — the
// durable prefix dedups on replay, the unacked suffix is re-published.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
#include "src/common/random.hpp"
#include "src/core/event.hpp"
#include "src/obs/metrics.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/transport/inproc.hpp"
#include "src/transport/shm.hpp"
#include "src/transport/tcp.hpp"

namespace fsmon::scalable {
namespace {

using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

bool sockets_available() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

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

/// Same seeded workload shape as shard_chaos_test: creates / renames /
/// unlinks / mkdirs spread over the MDTs by DNE hashing.
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

class TransportChaosTest : public ::testing::TestWithParam<transport::TransportKind> {
 protected:
  void SetUp() override {
    if (GetParam() == transport::TransportKind::kTcp && !sockets_available()) {
      GTEST_SKIP() << "sockets unavailable";
    }
    // The parameterized test name contains '/'; flatten it for the path.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_transportchaos_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    chaos::FaultInjector::instance().disarm();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<transport::Transport> make_transport() {
    switch (GetParam()) {
      case transport::TransportKind::kInProc:
        return std::make_unique<transport::InProcTransport>(transport_bus_);
      case transport::TransportKind::kShm:
        return std::make_unique<transport::ShmTransport>();
      case transport::TransportKind::kTcp:
        return std::make_unique<transport::TcpTransport>();
    }
    return nullptr;
  }

  ScalableMonitorOptions options(transport::Transport* transport) {
    ScalableMonitorOptions o;
    o.shards = 4;
    o.transport = transport;
    eventstore::EventStoreOptions store;
    store.directory = dir_;
    o.aggregator.store = store;
    return o;
  }

  void babysit(ScalableMonitor& monitor) {
    for (std::size_t i = 0; i < monitor.collector_count(); ++i) {
      if (monitor.collector(i).crashed()) {
        EXPECT_TRUE(monitor.restart_collector(i).is_ok());
      }
    }
    for (std::size_t k = 0; k < monitor.sharded().shard_count(); ++k) {
      if (monitor.sharded().shard(k).crashed()) {
        EXPECT_TRUE(monitor.restart_aggregator_shard(k).is_ok());
      }
    }
  }

  void run_with_babysitter(ScalableMonitor& monitor, ChaosWorkload& workload,
                           int ops) {
    for (int i = 0; i < ops; ++i) {
      workload.step();
      if (i % 4 == 3) {
        babysit(monitor);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

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
    VectorCursor cursor;
    auto events = monitor.sharded().events_since(cursor);
    EXPECT_TRUE(events.is_ok()) << events.status().to_string();
    if (!events.is_ok()) return counts;
    for (const auto& event : events.value()) ++counts[key_of(event)];
    return counts;
  }

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

  msgq::Bus transport_bus_;
  std::filesystem::path dir_;
  common::RealClock clock_;
};

/// Same store/consumer cross-check as shard_chaos_test.
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

TEST_P(TransportChaosTest, FourShardCrashSweepIsExactlyOnce) {
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;  // MDT i -> shard i: every shard owns traffic
  LustreFs fs(fs_options, clock_);
  auto transport = make_transport();
  ScalableMonitor monitor(fs, options(transport.get()), clock_);
  std::mutex mu;
  KeyCounts delivered;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  // Kill shards mid-stream with frames buffered in their inboxes. The
  // dead shard's carrier endpoints go down with it — over TCP the
  // restart must literally re-dial the collector senders — and its
  // unpersisted events must be re-published by the rewound owner
  // collectors while the other three shards keep flowing.
  ChaosWorkload workload(fs, 91);
  for (int round = 0; round < 2; ++round) {
    const std::size_t victim = static_cast<std::size_t>(round * 2 + 1) % 4;
    for (int i = 0; i < 25; ++i) workload.step();
    monitor.crash_aggregator_shard(victim);
    run_with_babysitter(monitor, workload, 15);
    babysit(monitor);
  }
  for (int i = 0; i < 20; ++i) workload.step();

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  consumer->stop();
  monitor.stop();
}

TEST_P(TransportChaosTest, RefusedSendsRewindCollectorsExactlyOnce) {
  // transport.before_send turns individual sends into refusals, on every
  // hop. The collector must treat every refusal as a rewind signal
  // regardless of carrier: the refused records stay retained in the
  // changelog and the run replays contiguously, so the merged store view
  // is exactly-once. A refused shard-to-hub send is never retried; the
  // hub fills the id gap from the store, so the live consumer also gets
  // every record exactly once.
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock_);
  auto transport = make_transport();
  ScalableMonitor monitor(fs, options(transport.get()), clock_);
  std::mutex mu;
  KeyCounts delivered;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  chaos::FaultPlan plan;
  plan.seed = 7;
  chaos::FaultRule rule;
  rule.point = "transport.before_send";
  rule.action = chaos::FaultAction::kDrop;
  rule.probability = 0.35;
  rule.max_fires = 10;
  plan.rules.push_back(rule);
  chaos::FaultInjector::instance().arm(std::move(plan));

  ChaosWorkload workload(fs, 123);
  run_with_babysitter(monitor, workload, 160);

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  consumer->stop();
  monitor.stop();
}

TEST_P(TransportChaosTest, CrashWindowReplayRecoversWithoutBabysitterRewind) {
  // Deterministic regression for the reconnect suffix-loss race that
  // made FourShardCrashSweepIsExactlyOnce/tcp flake (~1 in 3 runs): a
  // collector that publishes into the window between a shard's teardown
  // and its re-dial used to see receivers == 0 over TCP ("nobody ever
  // listened") and advance past frames no one received. Once the shard
  // came back, every later frame sat above the hole and was gap-refused
  // forever — the suffix was lost from the store AND the consumer, and
  // the pipeline wedged. This test forces that exact interleaving:
  // crash a shard, wait until its collector has read and published the
  // fresh records into the closed window, then restart the shard
  // *without* the monitor-level babysitter rewind. Recovery must come
  // from the transport tier itself (vanished-receiver sends surface as
  // refusals -> collector rewinds) backed by the aggregator's
  // gap-refusal nack. Pre-fix this fails deterministically on TCP.
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock_);
  auto transport = make_transport();
  ScalableMonitor monitor(fs, options(transport.get()), clock_);
  std::mutex mu;
  KeyCounts delivered;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  // Warm-up traffic, fully acked and cleared: the victim shard's
  // watermark is established, so any suffix lost in the crash window
  // opens a detectable gap right above it.
  ChaosWorkload workload(fs, 17);
  for (int i = 0; i < 30; ++i) workload.step();
  settle(monitor, fs);

  const std::size_t victim = 1;
  const std::uint64_t before = fs.mds(victim).mdt().changelog().last_index();
  const std::uint64_t processed_before = monitor.collector(victim).records_processed();
  monitor.crash_aggregator_shard(victim);

  // Generate records for the dead shard and wait until its collector
  // has read past all of them — every publish of that run lands in the
  // closed window.
  for (int i = 0; i < 60; ++i) workload.step();
  const std::uint64_t added =
      fs.mds(victim).mdt().changelog().last_index() - before;
  ASSERT_GT(added, 0u) << "workload never touched the victim MDT";
  wait_until([&] {
    return monitor.collector(victim).records_processed() >= processed_before + added;
  });
  // The counter advances during processing; give the trailing publish
  // calls a beat to complete inside the closed window.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Restart the shard directly — deliberately NOT through
  // restart_aggregator_shard, which would rewind the collector and mask
  // the bug. The unacked suffix must come back on its own.
  ASSERT_TRUE(monitor.sharded().shard(victim).restart().is_ok());
  // A little post-restart traffic exercises the gap-refusal nack path
  // too: frames above the hole are refused until the rewind heals it.
  for (int i = 0; i < 10; ++i) workload.step();

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  consumer->stop();
  monitor.stop();
}

TEST_P(TransportChaosTest, ConsumerCrashRestartMidStreamIsExactlyOnce) {
  // A consumer on another host is an ordinary Consumer on the tier's
  // transport. Crash it mid-stream: the records produced while it is
  // down reach the store but not the consumer, and frames the shards
  // send into the dead connection are refused. restart() must re-dial,
  // replay the outage from the acked cursor and collapse any overlap
  // with live frames, so every record arrives exactly once. Acking every
  // batch makes the acked cursor the delivered one, so nothing the
  // consumer saw before the crash is replayed.
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock_);
  auto transport = make_transport();
  ScalableMonitor monitor(fs, options(transport.get()), clock_);
  std::mutex mu;
  KeyCounts delivered;
  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 1;
  auto consumer = monitor.make_consumer("c", consumer_options, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++delivered[key_of(e)];
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  ChaosWorkload workload(fs, 29);
  for (int i = 0; i < 40; ++i) workload.step();
  consumer->crash();
  for (int i = 0; i < 40; ++i) workload.step();
  settle(monitor, fs);  // the outage's records are all in the store
  ASSERT_TRUE(consumer->restart().is_ok());
  for (int i = 0; i < 40; ++i) workload.step();

  VERIFY_PIPELINE(monitor, fs, delivered, mu);
  consumer->stop();
  monitor.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TransportChaosTest,
    ::testing::Values(transport::TransportKind::kInProc,
                      transport::TransportKind::kShm,
                      transport::TransportKind::kTcp),
    [](const ::testing::TestParamInfo<transport::TransportKind>& info) {
      return std::string(transport::to_string(info.param));
    });

class ShmFullChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { chaos::FaultInjector::instance().disarm(); }
};

TEST_F(ShmFullChaosTest, FullRingFaultTurnsBackpressureIntoRefusal) {
  // A full ring normally blocks the sender until the receiver releases
  // records. The transport.shm.full point breaks that wait into a
  // refusal — the same signal a closed inbox produces — so chaos plans
  // can exercise the rewind path without a stuck producer thread.
  transport::ShmTransportOptions options;
  options.ring_bytes = 1024;
  transport::ShmTransport transport(options);
  obs::MetricsRegistry registry;
  transport.attach_metrics(&registry);
  auto sender = transport.make_sender("s");
  auto receiver = transport.make_receiver("r", 1024, transport::OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);

  // Two records of 16B header + 1B topic + 480B payload, padded to 504,
  // fill the 1024-byte ring; a third cannot fit until one is reclaimed.
  const std::string payload(480, 'x');
  ASSERT_EQ(sender->send("t", transport::FrameRef::adopt(std::string(payload))).accepted,
            1u);
  ASSERT_EQ(sender->send("t", transport::FrameRef::adopt(std::string(payload))).accepted,
            1u);

  chaos::FaultPlan plan;
  chaos::FaultRule rule;
  rule.point = "transport.shm.full";
  rule.action = chaos::FaultAction::kFail;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  chaos::FaultInjector::instance().arm(std::move(plan));

  const auto refused = sender->send("t", transport::FrameRef::adopt(std::string(payload)));
  EXPECT_EQ(refused.accepted, 0u);
  EXPECT_TRUE(refused.refused());
  EXPECT_GE(registry.snapshot().counter_total("transport.ring_full_waits"), 1u);

  chaos::FaultInjector::instance().disarm();
  // Drain the ring (dropping each frame releases its record) and the
  // refused send goes through on retry — nothing was lost or wedged.
  for (int i = 0; i < 2; ++i) {
    auto frame = receiver->recv(std::chrono::milliseconds(1000));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload.size(), payload.size());
  }
  const auto retried = sender->send("t", transport::FrameRef::adopt(std::string(payload)));
  EXPECT_EQ(retried.accepted, 1u);
  auto frame = receiver->recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(frame.has_value());
}

class GroupCommitChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_groupchaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    chaos::FaultInjector::instance().disarm();
    std::filesystem::remove_all(dir_);
  }

  static std::string make_frame(const std::string& source,
                                std::uint64_t first_cookie, int count) {
    core::EventBatch batch;
    for (int i = 0; i < count; ++i) {
      StdEvent event;
      event.source = source;
      event.cookie = first_cookie + static_cast<std::uint64_t>(i);
      event.path = "/f" + std::to_string(event.cookie);
      batch.events.push_back(std::move(event));
    }
    const auto bytes = core::encode_batch(batch);
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  std::filesystem::path dir_;
  common::RealClock clock_;
};

TEST_F(GroupCommitChaosTest, TornGroupCommitAcksNothingAndReplayRecovers) {
  msgq::Bus bus;
  AggregatorOptions options;
  eventstore::EventStoreOptions store;
  store.directory = dir_;
  options.store = store;
  // A wide straggler window so the three batches sent below coalesce
  // into one commit group before the torn fault evaluates.
  options.wal_group_commit_us = std::chrono::milliseconds(200);
  Aggregator aggregator(bus, "aggregator", options, clock_);

  std::mutex mu;
  std::map<std::string, std::uint64_t> acked;  // source -> max acked index
  std::size_t ack_calls = 0;
  aggregator.set_ack_callback([&](std::string_view source, std::uint64_t index) {
    std::lock_guard lock(mu);
    auto& high = acked[std::string(source)];
    high = std::max(high, index);
    ++ack_calls;
  });

  // kCrash with arg=1: the store keeps a one-batch durable prefix of the
  // group, but the crash lands before ANY ack is released. Acking the
  // prefix here would be wrong even though it is durable: the chaos
  // schedule promises the whole group's acks are atomic with its commit.
  chaos::FaultPlan plan;
  chaos::FaultRule rule;
  rule.point = "wal.group_commit_torn";
  rule.action = chaos::FaultAction::kCrash;
  rule.arg = 1;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  chaos::FaultInjector::instance().arm(std::move(plan));

  ASSERT_TRUE(aggregator.start().is_ok());
  auto sender = aggregator.transport().make_sender("collector");
  sender->connect(aggregator.input());
  const std::string source = "lustre:MDT0";
  for (int i = 0; i < 3; ++i) {
    const auto result = sender->send(
        "collector/MDT0",
        transport::FrameRef::adopt(make_frame(source, 1 + 2 * i, 2)));
    ASSERT_EQ(result.accepted, 1u) << "frame " << i;
  }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!aggregator.crashed() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(aggregator.crashed());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(ack_calls, 0u) << "a torn group must not ack any of its batches";
  }

  // Restart and replay the whole run, as a rewound collector would. The
  // durable prefix batch dedups against the recovered watermark (its ack
  // flows as an ack-only marker), the rest persists for the first time.
  chaos::FaultInjector::instance().disarm();
  ASSERT_TRUE(aggregator.restart().is_ok());
  for (int i = 0; i < 3; ++i) {
    const auto result = sender->send(
        "collector/MDT0",
        transport::FrameRef::adopt(make_frame(source, 1 + 2 * i, 2)));
    ASSERT_EQ(result.accepted, 1u) << "replayed frame " << i;
  }
  const auto ack_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    {
      std::lock_guard lock(mu);
      if (acked[source] >= 6) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), ack_deadline)
        << "replay never acked through record 6";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  auto events = aggregator.events_since(0);
  ASSERT_TRUE(events.is_ok()) << events.status().to_string();
  std::map<std::uint64_t, int> cookies;
  for (const auto& event : events.value()) ++cookies[event.cookie];
  EXPECT_EQ(cookies.size(), 6u);
  for (std::uint64_t cookie = 1; cookie <= 6; ++cookie) {
    EXPECT_EQ(cookies[cookie], 1) << "cookie " << cookie;
  }
  EXPECT_GE(aggregator.commit_groups(), 1u);
  aggregator.stop();
}

}  // namespace
}  // namespace fsmon::scalable
