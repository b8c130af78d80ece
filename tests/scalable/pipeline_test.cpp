// End-to-end tests of the threaded scalable pipeline:
// collectors -> aggregator -> fan-out hub -> consumers.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::scalable {
namespace {

using core::EventKind;
using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_pipe_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScalableMonitorOptions options(bool with_store = false) {
    ScalableMonitorOptions o;
    o.collector.cache_size = 64;
    if (with_store) {
      eventstore::EventStoreOptions store;
      store.directory = dir_;
      o.aggregator.store = store;
    }
    return o;
  }

  std::filesystem::path dir_;
  common::RealClock clock;
};

TEST_F(PipelineTest, SingleMdsEndToEnd) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<StdEvent> received;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& event) {
    std::lock_guard lock(mu);
    received.push_back(event);
    cv.notify_all();
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  fs.create("/hello.txt");
  fs.modify("/hello.txt", 64);
  fs.unlink("/hello.txt");

  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return received.size() >= 3; }));
  }
  consumer->stop();
  monitor.stop();

  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0].kind, EventKind::kCreate);
  EXPECT_EQ(received[0].path, "/hello.txt");
  EXPECT_EQ(received[1].kind, EventKind::kModify);
  EXPECT_EQ(received[2].kind, EventKind::kDelete);
  // Aggregator assigned increasing global ids.
  EXPECT_EQ(received[0].id, 1u);
  EXPECT_EQ(received[2].id, 3u);
}

TEST_F(PipelineTest, FourMdsEventsAggregateWithoutLoss) {
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock);
  ScalableMonitor monitor(fs, options(), clock);
  EXPECT_EQ(monitor.collector_count(), 4u);

  std::atomic<int> received{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { received.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kDirs = 40;
  int expected = 0;
  for (int i = 0; i < kDirs; ++i) {
    const std::string dir = "/d" + std::to_string(i);
    ASSERT_TRUE(fs.mkdir(dir).is_ok());
    ASSERT_TRUE(fs.create(dir + "/f").is_ok());
    ASSERT_TRUE(fs.unlink(dir + "/f").is_ok());
    expected += 3;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.load() < expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(received.load(), expected);
  // Work actually spread over several collectors (DNE hashing).
  int active_collectors = 0;
  for (std::size_t i = 0; i < monitor.collector_count(); ++i) {
    if (monitor.collector(i).records_processed() > 0) ++active_collectors;
  }
  EXPECT_GE(active_collectors, 2);
  // Changelogs were purged after processing.
  for (std::uint32_t i = 0; i < fs.mdt_count(); ++i) {
    EXPECT_EQ(fs.mds(i).mdt().changelog().retained(), 0u) << "MDT" << i;
  }
}

TEST_F(PipelineTest, ConsumerFilteringIsLocal) {
  // Each consumer sees only the events its own rules match. The hub
  // does the matching, so an event no rule matches never reaches the
  // consumer at all (and is not counted as filtered out there).
  LustreFs fs(LustreFsOptions{}, clock);
  fs.mkdir("/keep");
  fs.mkdir("/drop");
  ScalableMonitor monitor(fs, options(), clock);

  ConsumerOptions consumer_options;
  core::FilterRule rule;
  rule.root = "/keep";
  consumer_options.rules.push_back(rule);
  std::atomic<int> kept{0};
  auto consumer = monitor.make_consumer("c", consumer_options,
                                        [&](const StdEvent&) { kept.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  fs.create("/keep/a");
  fs.create("/drop/b");
  // Both events have passed the hub's index once its head reaches 2.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((monitor.hub().head_cursor().sum() < 2 || consumer->delivered() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(kept.load(), 1);
  EXPECT_EQ(consumer->delivered(), 1u);
}

TEST_F(PipelineTest, ReplayOnlyConsumerNeverStartsOrAcks) {
  // A consumer built without a hub can replay the store but has no live
  // path: start() fails, and its deliveries never acknowledge, so the
  // store keeps everything.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(/*with_store=*/true), clock);
  constexpr int kFiles = 10;
  for (int i = 0; i < kFiles; ++i) fs.create("/f" + std::to_string(i));
  monitor.drain_collectors_once();
  ASSERT_EQ(monitor.aggregator().persisted(), static_cast<std::uint64_t>(kFiles));

  ConsumerOptions replay_options;
  replay_options.ack_interval = 1;
  std::atomic<int> replayed{0};
  Consumer replay_only(monitor.sharded(), "replay", replay_options,
                       [&](const StdEvent&) { replayed.fetch_add(1); });
  EXPECT_FALSE(replay_only.start().is_ok());
  auto count = replay_only.replay_historic(0);
  ASSERT_TRUE(count.is_ok());
  EXPECT_EQ(count.value(), static_cast<std::size_t>(kFiles));
  EXPECT_EQ(replayed.load(), kFiles);

  monitor.aggregator().purge();
  auto held = monitor.aggregator().events_since(0);
  ASSERT_TRUE(held.is_ok());
  EXPECT_EQ(held.value().size(), static_cast<std::size_t>(kFiles));
}

TEST_F(PipelineTest, DsiRestartKeepsDelivering) {
  // Stopping the monitor closes its hub's receiver; starting it again
  // must reopen it, or a restarted DSI delivers nothing.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableDsi dsi(fs, options(), clock);
  std::atomic<int> received{0};
  auto count = [&](const StdEvent&) { received.fetch_add(1); };
  auto wait_for = [&](int n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (received.load() < n && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return received.load() >= n;
  };
  ASSERT_TRUE(dsi.start(count).is_ok());
  fs.create("/before");
  ASSERT_TRUE(wait_for(1));
  dsi.stop();
  ASSERT_TRUE(dsi.start(count).is_ok());
  fs.create("/after");
  EXPECT_TRUE(wait_for(2)) << "received " << received.load();
  dsi.stop();
}

TEST_F(PipelineTest, AggregatorPersistsForReplay) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(/*with_store=*/true), clock);
  std::atomic<int> received{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { received.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());
  fs.create("/a");
  fs.create("/b");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((received.load() < 2 || monitor.aggregator().persisted() < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  auto replay = monitor.aggregator().events_since(0);
  ASSERT_TRUE(replay.is_ok());
  ASSERT_EQ(replay.value().size(), 2u);
  EXPECT_EQ(replay.value()[0].path, "/a");
  EXPECT_EQ(replay.value()[1].path, "/b");
}

TEST_F(PipelineTest, ExactlyOneSerializationPerEventEndToEnd) {
  // The batched path's core invariant: the collector serializes each
  // event once; the aggregator patches ids into the encoded bytes and
  // the persister reuses them, so no further serialize_event calls
  // happen anywhere in the pipeline. (Each gtest case runs as its own
  // ctest process, so the process-wide codec counters are isolated.)
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  auto o = options(/*with_store=*/true);
  o.aggregator.metrics = &registry;
  ScalableMonitor monitor(fs, o, clock);
  std::atomic<int> received{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { received.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kEvents = 32;
  const auto before = core::codec_counters();
  for (int i = 0; i < kEvents; ++i) fs.create("/f" + std::to_string(i));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((received.load() < kEvents ||
          monitor.aggregator().persisted() < kEvents) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  const auto after = core::codec_counters();

  ASSERT_EQ(received.load(), kEvents);
  ASSERT_EQ(monitor.aggregator().persisted(), static_cast<std::uint64_t>(kEvents));
  // One serialization per event, total, across collector + aggregator +
  // persist path. (The consumer's decode costs deserialize calls, which
  // are unconstrained here.)
  EXPECT_EQ(after.serialize_calls - before.serialize_calls,
            static_cast<std::uint64_t>(kEvents));
  // And the obs registry agrees every event was persisted.
  EXPECT_EQ(registry.snapshot().counter_total("aggregator.events_persisted"),
            static_cast<std::uint64_t>(kEvents));
}

TEST_F(PipelineTest, BatchCallbackReceivesMatchingEventsOnce) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<StdEvent> received;
  std::size_t batches = 0;
  auto consumer = monitor.make_consumer(
      "c", ConsumerOptions{}, [&](const core::EventBatch& batch) {
        std::lock_guard lock(mu);
        ++batches;
        for (const auto& event : batch.events) received.push_back(event);
        cv.notify_all();
      });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  fs.create("/one");
  fs.create("/two");
  fs.create("/three");
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return received.size() >= 3; }));
  }
  consumer->stop();
  monitor.stop();
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0].id, 1u);
  EXPECT_EQ(received[2].id, 3u);
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, 3u);
  EXPECT_EQ(consumer->delivered(), 3u);
}

TEST_F(PipelineTest, DrainOnceIsDeterministic) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  fs.create("/x");
  fs.create("/y");
  // Without starting threads, drain synchronously.
  EXPECT_EQ(monitor.drain_collectors_once(), 2u);
  EXPECT_EQ(monitor.drain_collectors_once(), 0u);
  EXPECT_EQ(monitor.total_records_processed(), 2u);
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 0u);
}

TEST_F(PipelineTest, CollectorPurgesChangelogAfterProcessing) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  for (int i = 0; i < 10; ++i) fs.create("/f" + std::to_string(i));
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 10u);
  monitor.drain_collectors_once();
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 0u);
  // The collector's processor saw every record.
  EXPECT_EQ(monitor.collector(0).records_processed(), 10u);
}

}  // namespace
}  // namespace fsmon::scalable
