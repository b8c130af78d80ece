// Failure-injection tests: consumer failure with historic replay from
// the reliable store, collector restart resuming from the un-purged
// changelog, and event-store crash recovery inside the pipeline.
#include <filesystem>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::scalable {
namespace {

using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_ft_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScalableMonitorOptions options() {
    ScalableMonitorOptions o;
    eventstore::EventStoreOptions store;
    store.directory = dir_;
    o.aggregator.store = store;
    return o;
  }

  void wait_until(const std::function<bool()>& predicate) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!predicate() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(predicate());
  }

  std::filesystem::path dir_;
  common::RealClock clock;
};

TEST_F(FaultToleranceTest, FailedConsumerReplaysHistoricEvents) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());

  // A consumer that "fails" (never started) while events flow.
  fs.create("/a");
  fs.create("/b");
  fs.create("/c");
  wait_until([&] { return monitor.aggregator().persisted() >= 3; });

  std::vector<std::string> paths;
  auto consumer = monitor.make_consumer(
      "late", ConsumerOptions{},
      [&](const StdEvent& event) { paths.push_back(event.path); });
  // Section IV "Consumption": retrieve historic events after a fault.
  auto replayed = consumer->replay_historic(0);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed.value(), 3u);
  EXPECT_EQ(paths, (std::vector<std::string>{"/a", "/b", "/c"}));
  monitor.stop();
}

TEST_F(FaultToleranceTest, ReplayRespectsFilter) {
  LustreFs fs(LustreFsOptions{}, clock);
  fs.mkdir("/keep");
  ScalableMonitor monitor(fs, options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());
  fs.create("/keep/a");
  fs.create("/other");
  wait_until([&] { return monitor.aggregator().persisted() >= 2; });

  ConsumerOptions consumer_options;
  core::FilterRule rule;
  rule.root = "/keep";
  consumer_options.rules.push_back(rule);
  int delivered = 0;
  auto consumer = monitor.make_consumer("c", consumer_options,
                                        [&](const StdEvent&) { ++delivered; });
  auto replayed = consumer->replay_historic(0);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(delivered, 1);
  monitor.stop();
}

TEST_F(FaultToleranceTest, AcknowledgedEventsPurgeFromStore) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());
  for (int i = 0; i < 5; ++i) fs.create("/f" + std::to_string(i));
  wait_until([&] { return monitor.aggregator().persisted() >= 5; });
  monitor.aggregator().acknowledge(3);
  EXPECT_EQ(monitor.aggregator().purge(), 3u);
  auto remaining = monitor.aggregator().events_since(0);
  ASSERT_TRUE(remaining.is_ok());
  EXPECT_EQ(remaining.value().size(), 2u);
  monitor.stop();
}

TEST_F(FaultToleranceTest, CollectorRestartLosesNothing) {
  // Records appended while no collector thread runs stay in the
  // changelog (purge happens only after processing), so a restarted
  // collector resumes exactly where it left off.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  ASSERT_TRUE(monitor.start().is_ok());
  fs.create("/before");
  wait_until([&] { return monitor.total_records_processed() >= 1; });
  monitor.stop();  // "crash"

  fs.create("/during-outage-1");
  fs.create("/during-outage-2");
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 2u);

  ASSERT_TRUE(monitor.start().is_ok());  // restart
  wait_until([&] { return monitor.total_records_processed() >= 3; });
  monitor.stop();
  EXPECT_EQ(fs.mds(0).mdt().changelog().retained(), 0u);
}

TEST_F(FaultToleranceTest, StoreSurvivesAggregatorRestart) {
  LustreFs fs(LustreFsOptions{}, clock);
  {
    ScalableMonitor monitor(fs, options(), clock);
    ASSERT_TRUE(monitor.start().is_ok());
    fs.create("/persisted");
    wait_until([&] { return monitor.aggregator().persisted() >= 1; });
    monitor.stop();
  }
  // A new monitor over the same store directory recovers the events and
  // continues the id sequence.
  ScalableMonitor revived(fs, options(), clock);
  auto events = revived.aggregator().events_since(0);
  ASSERT_TRUE(events.is_ok());
  ASSERT_EQ(events.value().size(), 1u);
  EXPECT_EQ(events.value()[0].path, "/persisted");
  EXPECT_EQ(revived.aggregator().last_event_id(), 1u);

  ASSERT_TRUE(revived.start().is_ok());
  fs.create("/after-restart");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (revived.aggregator().persisted() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  revived.stop();
  auto all = revived.aggregator().events_since(0);
  ASSERT_TRUE(all.is_ok());
  ASSERT_EQ(all.value().size(), 2u);
  EXPECT_EQ(all.value()[1].id, 2u);  // numbering continued
}


TEST_F(FaultToleranceTest, CorruptBatchFrameIsDroppedAndPipelineKeepsFlowing) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  std::atomic<int> received{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { received.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  // Inject garbage straight into the aggregator's fan-in inbox, as a
  // misbehaving collector would: plain junk, a frame whose CRC trailer
  // is wrong, and a valid-but-empty batch.
  auto rogue = monitor.aggregator().transport().make_sender("rogue");
  rogue->connect(monitor.aggregator().input());
  rogue->send("fsmon/rogue",
              transport::FrameRef::adopt(std::string("not a batch frame at all")));
  auto bad_crc = core::encode_batch(core::EventBatch{});
  bad_crc.back() ^= std::byte{0xFF};
  rogue->send("fsmon/rogue", transport::FrameRef::adopt(std::move(bad_crc)));
  rogue->send("fsmon/rogue",
              transport::FrameRef::adopt(core::encode_batch(core::EventBatch{})));

  // Real events published after the corruption still flow end-to-end,
  // with ids untouched by the dropped frames.
  fs.create("/a");
  fs.create("/b");
  wait_until([&] {
    return received.load() >= 2 && monitor.aggregator().persisted() >= 2;
  });
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(received.load(), 2);
  EXPECT_EQ(monitor.aggregator().aggregated(), 2u);
  auto replay = monitor.aggregator().events_since(0);
  ASSERT_TRUE(replay.is_ok());
  ASSERT_EQ(replay.value().size(), 2u);
  EXPECT_EQ(replay.value()[0].id, 1u);
  EXPECT_EQ(replay.value()[1].id, 2u);
}

TEST_F(FaultToleranceTest, PeriodicPurgeCycleRemovesAcknowledgedEvents) {
  LustreFs fs(LustreFsOptions{}, clock);
  auto o = options();
  o.aggregator.purge_interval = std::chrono::milliseconds(30);
  ScalableMonitor monitor(fs, o, clock);
  ASSERT_TRUE(monitor.start().is_ok());
  for (int i = 0; i < 4; ++i) fs.create("/f" + std::to_string(i));
  wait_until([&] { return monitor.aggregator().persisted() >= 4; });
  monitor.aggregator().acknowledge(4);
  // The purge cycle, not a manual purge() call, removes them. Wait on
  // both conditions: the cycle counter increments just after the purge,
  // so checking it separately would race.
  wait_until([&] {
    return monitor.aggregator().store()->live_records() == 0 &&
           monitor.aggregator().purge_cycles() >= 1;
  });
  monitor.stop();
}

}  // namespace
}  // namespace fsmon::scalable
