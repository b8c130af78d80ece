// IndexConsumer recovery tests: O(delta) restart (nsidx.replayed_events
// counts only the post-snapshot delta), torn-snapshot fallback with
// nsidx.snapshot_rebuilds, and cold-start full replay.
#include <chrono>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
#include "src/nsindex/index_consumer.hpp"
#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::nsindex {
namespace {

using lustre::LustreFs;
using lustre::LustreFsOptions;

class NsIndexRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_nsidx_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  scalable::ScalableMonitorOptions monitor_options() {
    scalable::ScalableMonitorOptions o;
    o.collector.cache_size = 64;
    eventstore::EventStoreOptions store;
    store.directory = dir_ / "store";
    store.flush_each_append = true;
    o.aggregator.store = store;
    return o;
  }

  IndexConsumerOptions index_options(obs::MetricsRegistry* metrics) {
    IndexConsumerOptions o;
    o.snapshot_dir = dir_ / "snaps";
    o.snapshot_every = 0;  // explicit checkpoints only
    o.metrics = metrics;
    return o;
  }

  static bool wait_for(const std::function<bool()>& pred,
                       std::chrono::seconds timeout = std::chrono::seconds(15)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  /// Wait until the merged store can serve `expected` events from zero —
  /// persistence is async, so replay-based assertions gate on this.
  static bool wait_persisted(scalable::ShardedAggregator& aggregator,
                             std::uint64_t expected) {
    return wait_for([&] {
      scalable::VectorCursor cursor(aggregator.shard_count());
      std::uint64_t seen = 0;
      for (;;) {
        auto events = aggregator.events_since(cursor, 4096);
        if (!events) return false;
        seen += events.value().size();
        if (events.value().size() < 4096) break;
      }
      return seen >= expected;
    });
  }

  std::filesystem::path dir_;
  common::RealClock clock;
};

TEST_F(NsIndexRecoveryTest, RestartReplaysOnlyThePostSnapshotDelta) {
  LustreFs fs(LustreFsOptions{}, clock);
  scalable::ScalableMonitor monitor(fs, monitor_options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());

  std::uint64_t expected = 0;
  {
    obs::MetricsRegistry registry;
    IndexConsumer first(monitor.hub(), monitor.sharded(), "nsidx-a",
                        index_options(&registry));
    ASSERT_TRUE(first.start().is_ok());

    for (int i = 0; i < 20; ++i) {
      const std::string dir = "/d" + std::to_string(i);
      ASSERT_TRUE(fs.mkdir(dir).is_ok());
      ASSERT_TRUE(fs.create(dir + "/f").is_ok());
      ASSERT_TRUE(fs.modify(dir + "/f", 64).is_ok());
      expected += 3;
    }
    ASSERT_TRUE(wait_for([&] { return first.index().applied_seq() == expected; }))
        << "applied " << first.index().applied_seq() << " of " << expected;
    ASSERT_TRUE(first.checkpoint().is_ok());
    EXPECT_EQ(first.last_checkpoint_seq(), expected);
    first.stop();
  }
  const std::uint64_t checkpointed = expected;

  // Delta written while the index consumer is down.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs.create("/d0/extra" + std::to_string(i)).is_ok());
    ++expected;
  }
  ASSERT_TRUE(wait_persisted(monitor.sharded(), expected));

  obs::MetricsRegistry registry;
  IndexConsumer second(monitor.hub(), monitor.sharded(), "nsidx-b",
                       index_options(&registry));
  ASSERT_TRUE(second.start().is_ok());
  // O(delta): recovery replayed exactly the events above the snapshot
  // cursor, not the full history.
  EXPECT_EQ(second.replayed_events(), expected - checkpointed);
  EXPECT_EQ(registry.counter("nsidx.replayed_events", {}).value(),
            expected - checkpointed);
  ASSERT_TRUE(wait_for([&] { return second.index().applied_seq() == expected; }));

  // The recovered state equals a from-scratch fold of the full history.
  NamespaceIndex reference;
  auto folded = fold_namespace(monitor.sharded(), reference);
  ASSERT_TRUE(folded.is_ok());
  EXPECT_EQ(folded.value(), expected);
  EXPECT_EQ(second.index().debug_dump(), reference.debug_dump());

  second.stop();
  monitor.stop();
}

TEST_F(NsIndexRecoveryTest, TornSnapshotFallsBackToPreviousAndReplays) {
  LustreFs fs(LustreFsOptions{}, clock);
  scalable::ScalableMonitor monitor(fs, monitor_options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());

  std::uint64_t expected = 0;
  std::uint64_t good_checkpoint = 0;
  {
    obs::MetricsRegistry registry;
    IndexConsumer first(monitor.hub(), monitor.sharded(), "nsidx-a",
                        index_options(&registry));
    ASSERT_TRUE(first.start().is_ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
      ++expected;
    }
    ASSERT_TRUE(wait_for([&] { return first.index().applied_seq() == expected; }));
    ASSERT_TRUE(first.checkpoint().is_ok());
    good_checkpoint = expected;

    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(fs.modify("/f" + std::to_string(i), 32).is_ok());
      ++expected;
    }
    ASSERT_TRUE(wait_for([&] { return first.index().applied_seq() == expected; }));
    {
      chaos::FaultPlan plan;
      plan.seed = 42;
      plan.rules.push_back(chaos::FaultRule{"nsindex.snapshot_torn",
                                            chaos::FaultAction::kFail, 0, 1.0, 1,
                                            std::chrono::nanoseconds(0), 0});
      chaos::ScopedFaultPlan scoped(std::move(plan));
      EXPECT_FALSE(first.checkpoint().is_ok()) << "torn write must not report success";
    }
    // The torn file reached the final snapshot name.
    EXPECT_EQ(first.snapshots().list().size(), 2u);
    first.stop();
  }
  ASSERT_TRUE(wait_persisted(monitor.sharded(), expected));

  obs::MetricsRegistry registry;
  IndexConsumer second(monitor.hub(), monitor.sharded(), "nsidx-b",
                       index_options(&registry));
  ASSERT_TRUE(second.start().is_ok());
  // The torn snapshot was discarded (counted), the previous one loaded,
  // and the delta above it — not just above the torn one — replayed.
  EXPECT_EQ(registry.counter("nsidx.snapshot_rebuilds", {}).value(), 1u);
  EXPECT_EQ(second.replayed_events(), expected - good_checkpoint);
  EXPECT_EQ(second.snapshots().list().size(), 1u) << "torn file deleted";
  ASSERT_TRUE(wait_for([&] { return second.index().applied_seq() == expected; }));

  NamespaceIndex reference;
  ASSERT_TRUE(fold_namespace(monitor.sharded(), reference).is_ok());
  EXPECT_EQ(second.index().debug_dump(), reference.debug_dump());

  second.stop();
  monitor.stop();
}

TEST_F(NsIndexRecoveryTest, ColdStartWithNoSnapshotReplaysEverything) {
  LustreFs fs(LustreFsOptions{}, clock);
  scalable::ScalableMonitor monitor(fs, monitor_options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());

  std::uint64_t expected = 0;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
    ++expected;
  }
  ASSERT_TRUE(wait_persisted(monitor.sharded(), expected));

  obs::MetricsRegistry registry;
  IndexConsumer consumer(monitor.hub(), monitor.sharded(), "nsidx",
                         index_options(&registry));
  ASSERT_TRUE(consumer.start().is_ok());
  EXPECT_EQ(consumer.replayed_events(), expected);
  ASSERT_TRUE(wait_for([&] { return consumer.index().applied_seq() == expected; }));
  EXPECT_EQ(consumer.index().node_count(), 12u);

  consumer.stop();
  monitor.stop();
}

TEST_F(NsIndexRecoveryTest, PeriodicCheckpointsAdvanceTheAckFloorLive) {
  LustreFs fs(LustreFsOptions{}, clock);
  scalable::ScalableMonitor monitor(fs, monitor_options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());

  obs::MetricsRegistry registry;
  IndexConsumerOptions options = index_options(&registry);
  options.snapshot_every = 16;  // automatic checkpoints while live
  IndexConsumer consumer(monitor.hub(), monitor.sharded(), "nsidx",
                         std::move(options));
  ASSERT_TRUE(consumer.start().is_ok());

  std::uint64_t expected = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
    ++expected;
  }
  ASSERT_TRUE(wait_for([&] { return consumer.index().applied_seq() == expected; }));
  ASSERT_TRUE(wait_for([&] { return consumer.last_checkpoint_seq() >= 16; }));
  EXPECT_GE(registry.counter("nsidx.snapshots_written", {}).value(), 1u);
  EXPECT_FALSE(consumer.snapshots().list().empty());
  // Queries work while live.
  auto listing = consumer.index().list_dir("/");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_EQ(listing.value().size(), 40u);

  consumer.stop();
  monitor.stop();
}

}  // namespace
}  // namespace fsmon::nsindex
