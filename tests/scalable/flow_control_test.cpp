// FanOutHub end-to-end: hub-mode delivery parity, slow-consumer
// demotion/promotion (gap-free, duplicate-free seam), eviction, and
// min-ack forwarding to the reliable stores.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::scalable {
namespace {

using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

class FlowControlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_flow_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScalableMonitorOptions options(bool with_store = true) {
    ScalableMonitorOptions o;
    o.collector.cache_size = 64;
    o.fanout_hub = true;
    if (with_store) {
      eventstore::EventStoreOptions store;
      store.directory = dir_;
      o.aggregator.store = store;
    }
    return o;
  }

  /// Opens a consumer-stalling gate on scope exit, so a failed ASSERT
  /// never deadlocks the consumer destructors on a blocked callback.
  struct GateGuard {
    std::atomic<bool>& closed;
    std::condition_variable& cv;
    ~GateGuard() {
      closed.store(false);
      cv.notify_all();
    }
  };

  static bool wait_until(const std::function<bool()>& done,
                         std::chrono::seconds deadline = std::chrono::seconds(20)) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (!done()) {
      if (std::chrono::steady_clock::now() >= until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  std::filesystem::path dir_;
  common::RealClock clock;
};

TEST_F(FlowControlTest, HubDeliversPerConsumerFilteredSubsets) {
  LustreFs fs(LustreFsOptions{}, clock);
  fs.mkdir("/keep");
  fs.mkdir("/drop");
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);
  ASSERT_NE(monitor.hub(), nullptr);

  std::atomic<int> keep_count{0};
  std::atomic<int> all_count{0};
  ConsumerOptions keep_options;
  core::FilterRule keep_rule;
  keep_rule.root = "/keep";
  keep_options.rules.push_back(keep_rule);
  auto keep = monitor.make_consumer("keep", keep_options,
                                    [&](const StdEvent&) { keep_count.fetch_add(1); });
  auto all = monitor.make_consumer("all", ConsumerOptions{},
                                   [&](const StdEvent&) { all_count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(keep->start().is_ok());
  ASSERT_TRUE(all->start().is_ok());

  constexpr int kFiles = 32;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs.create("/keep/f" + std::to_string(i)).is_ok());
    ASSERT_TRUE(fs.create("/drop/f" + std::to_string(i)).is_ok());
  }
  // The pre-start mkdirs predate the collectors, so only the creates
  // flow: kFiles under /keep, 2 * kFiles in total.
  ASSERT_TRUE(wait_until([&] {
    return keep_count.load() >= kFiles && all_count.load() >= 2 * kFiles;
  })) << "keep=" << keep_count.load() << " all=" << all_count.load()
      << " keep_state=" << to_string(keep->flow_state())
      << " all_state=" << to_string(all->flow_state())
      << " frames=" << monitor.hub()->frames_pumped();
  EXPECT_EQ(keep->flow_state(), FlowState::kLive);
  EXPECT_EQ(all->flow_state(), FlowState::kLive);
  EXPECT_GT(monitor.hub()->frames_pumped(), 0u);
  // One shared hub receiver on the shard output, not one per consumer.
  keep->stop();
  all->stop();
  monitor.stop();
  EXPECT_EQ(keep_count.load(), kFiles);
  EXPECT_EQ(all_count.load(), 2 * kFiles);
}

TEST_F(FlowControlTest, HubConsumerWithMetricsDeliversWithoutReceiver) {
  // Regression: a hub-mode consumer has no private transport receiver,
  // but a wired metrics registry still creates the overflow gauge — the
  // instrumented delivery path used to dereference the null receiver on
  // the first non-empty batch.
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);
  ASSERT_NE(monitor.hub(), nullptr);

  std::atomic<int> count{0};
  ConsumerOptions metered_options;
  metered_options.metrics = &registry;
  auto consumer = monitor.make_consumer(
      "metered", metered_options, [&](const StdEvent&) { count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kFiles = 16;
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return count.load() >= kFiles; }));
  consumer->stop();
  monitor.stop();

  const obs::Labels labels{{"consumer", "metered"}};
  EXPECT_EQ(registry.gauge("consumer.overflow_dropped", labels).value(), 0);
  EXPECT_EQ(registry.counter("consumer.events_delivered", labels).value(),
            static_cast<std::uint64_t>(kFiles));
}

TEST_F(FlowControlTest, IdleSubscriberDoesNotPinStorePurge) {
  // Regression: a live consumer whose rules match nothing never appears
  // in a delivery set, so it never acks; its subscribe-time watermark
  // used to pin the hub's min-ack forever and the store purge reclaimed
  // nothing. The idle subscriber's effective cursor must track heads.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  ScalableMonitor monitor(fs, o, clock);

  std::atomic<int> idle_count{0};
  std::atomic<int> healthy_count{0};
  ConsumerOptions idle_options;
  core::FilterRule never;
  never.root = "/never-created";
  idle_options.rules.push_back(never);
  idle_options.ack_interval = 16;
  auto idle = monitor.make_consumer("idle", idle_options,
                                    [&](const StdEvent&) { idle_count.fetch_add(1); });
  ConsumerOptions healthy_options;
  healthy_options.ack_interval = 16;
  auto healthy = monitor.make_consumer("healthy", healthy_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(idle->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  constexpr int kEvents = 600;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  EXPECT_EQ(idle->flow_state(), FlowState::kLive);

  // The healthy consumer's acks advance the min watermark because the
  // untouched idle subscriber no longer contributes to it.
  ASSERT_TRUE(wait_until([&] { return monitor.sharded().purge() > 0; },
                         std::chrono::seconds(10)));
  EXPECT_EQ(idle_count.load(), 0);

  idle->stop();
  healthy->stop();
  monitor.stop();
}

TEST_F(FlowControlTest, HubStoppedBeforeStartDoesNotBlockShardSenders) {
  // Regression: the constructor connects the hub's kBlock receiver to
  // every shard, but stop() used to early-return when start() never ran,
  // leaving the inbox open — once full it wedged the shard senders.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o;
  o.collector.cache_size = 64;  // legacy topology; the dead hub is extra
  ScalableMonitor monitor(fs, o, clock);
  FlowControlOptions flow;
  flow.high_water_mark = 2;  // fills after two frames if left open
  {
    FanOutHub dead(monitor.sharded(), flow);
    dead.stop();  // never started — must still close its inbox
    dead.stop();  // stopping twice stays safe
  }

  std::atomic<int> count{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const StdEvent&) { count.fetch_add(1); });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());
  constexpr int kFiles = 64;
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return count.load() >= kFiles; }));
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(count.load(), kFiles);
}

TEST_F(FlowControlTest, StalledConsumerIsDemotedThenPromotedGapFree) {
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitorOptions o = options();
  o.aggregator.metrics = &registry;
  o.flow.credit_window = 256;
  ScalableMonitor monitor(fs, o, clock);

  // The stalled consumer blocks inside its callback until released; its
  // hub queue keeps growing, credits run out, the hub demotes it.
  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::mutex seen_mu;
  std::vector<common::EventId> stalled_ids;
  std::atomic<int> healthy_count{0};

  ConsumerOptions slow_options;
  slow_options.ack_interval = 16;
  auto stalled = monitor.make_consumer("stalled", slow_options, [&](const StdEvent& event) {
    {
      std::unique_lock lock(gate_mu);
      gate_cv.wait(lock, [&] { return !gate_closed.load(); });
    }
    std::lock_guard lock(seen_mu);
    stalled_ids.push_back(event.id);
  });
  ConsumerOptions healthy_options;
  healthy_options.ack_interval = 16;
  auto healthy = monitor.make_consumer("healthy", healthy_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());

  // Sibling isolation: the healthy consumer receives the full stream
  // while its sibling is stalled — the stall never back-pressures the
  // shared pump or the shard senders.
  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  EXPECT_TRUE(wait_until([&] { return healthy->flow_state() == FlowState::kLive; }));
  // The hub noticed the exhausted window while the consumer was blocked.
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kDemoted; }));
  EXPECT_GE(registry.counter("flow.demotions").value(), 1u);

  // Release the stall: the consumer drains its queued live items, hits
  // the demotion marker, catches up from the store, and is promoted.
  gate_closed.store(false);
  gate_cv.notify_all();
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(seen_mu);
    return stalled_ids.size() >= kEvents;
  }));
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kLive; }));
  EXPECT_GE(registry.counter("flow.promotions").value(), 1u);

  stalled->stop();
  healthy->stop();
  monitor.stop();

  // Gap-free and duplicate-free across the live -> replay -> live seam:
  // exactly ids 1..kEvents, each once (single shard, dense sequence).
  std::lock_guard lock(seen_mu);
  ASSERT_EQ(stalled_ids.size(), static_cast<std::size_t>(kEvents));
  std::set<common::EventId> unique(stalled_ids.begin(), stalled_ids.end());
  EXPECT_EQ(unique.size(), stalled_ids.size()) << "duplicate delivery";
  EXPECT_EQ(*unique.begin(), 1u);
  EXPECT_EQ(*unique.rbegin(), static_cast<common::EventId>(kEvents));
}

TEST_F(FlowControlTest, NeverDrainingConsumerIsEvicted) {
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitorOptions o = options();
  o.aggregator.metrics = &registry;
  // Window and lag sized so the healthy consumer (which drains at memory
  // speed and acks every 16 events) can never trip them, while the
  // blocked sibling exhausts the window and blows past the lag bound.
  o.flow.credit_window = 4096;
  o.flow.eviction_lag = 6000;
  ScalableMonitor monitor(fs, o, clock);

  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::atomic<int> healthy_count{0};

  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 16;
  auto stalled = monitor.make_consumer("stalled", consumer_options, [&](const StdEvent&) {
    std::unique_lock lock(gate_mu);
    gate_cv.wait(lock, [&] { return !gate_closed.load(); });
  });
  auto healthy = monitor.make_consumer("healthy", consumer_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  constexpr int kEvents = 8000;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());

  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kEvicted; }));
  EXPECT_GE(registry.counter("flow.evictions").value(), 1u);

  // Release the callback so the worker can observe the eviction marker.
  gate_closed.store(false);
  gate_cv.notify_all();
  ASSERT_TRUE(wait_until([&] { return stalled->evicted(); }));
  EXPECT_TRUE(wait_until([&] { return healthy->flow_state() == FlowState::kLive; }));

  stalled->stop();
  healthy->stop();
  monitor.stop();
  EXPECT_EQ(healthy_count.load(), kEvents);
}

TEST_F(FlowControlTest, MinAckHoldsStorePurgeForDemotedConsumer) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  o.flow.credit_window = 256;
  ScalableMonitor monitor(fs, o, clock);

  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::atomic<int> stalled_count{0};
  std::atomic<int> healthy_count{0};

  ConsumerOptions fast_options;
  fast_options.ack_interval = 16;
  auto stalled = monitor.make_consumer("stalled", fast_options, [&](const StdEvent&) {
    {
      std::unique_lock lock(gate_mu);
      gate_cv.wait(lock, [&] { return !gate_closed.load(); });
    }
    stalled_count.fetch_add(1);
  });
  auto healthy = monitor.make_consumer("healthy", fast_options,
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  // Demotion fires only when a frame arrives after the 256-credit window
  // is spent. The frame that overdraws the window ends before event
  // 256 + 512 (the collector's publish_batch), so more events than that
  // guarantee a later frame whatever sizes the collector cuts.
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kEvents; }));
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kDemoted; }));

  // The healthy consumer has acked far ahead, but the hub forwards the
  // MINIMUM across subscriptions: the store must keep everything the
  // demoted consumer still needs, so a purge reclaims nothing.
  EXPECT_EQ(monitor.sharded().purge(), 0u);

  gate_closed.store(false);
  gate_cv.notify_all();
  ASSERT_TRUE(wait_until([&] {
    return stalled_count.load() >= kEvents && stalled->flow_state() == FlowState::kLive;
  }));
  // Both consumers have now acked past most of the stream; the min
  // watermark advanced and the purge reclaims reported events.
  ASSERT_TRUE(wait_until([&] { return monitor.sharded().purge() > 0; },
                         std::chrono::seconds(10)));

  stalled->stop();
  healthy->stop();
  monitor.stop();
}

}  // namespace
}  // namespace fsmon::scalable
