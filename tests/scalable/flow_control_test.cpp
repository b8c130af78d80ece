// FanOutHub end-to-end: per-consumer filtered delivery, slow-consumer
// demotion/promotion (gap-free, duplicate-free seam), eviction, min-ack
// forwarding to the reliable stores, id gaps filled from the stores, and
// the delivery worker pool (thread bound, blocked-callback handoff,
// zero-copy frames, crash/restart).
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
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
      << " frames=" << monitor.hub().frames_pumped();
  EXPECT_EQ(keep->flow_state(), FlowState::kLive);
  EXPECT_EQ(all->flow_state(), FlowState::kLive);
  EXPECT_GT(monitor.hub().frames_pumped(), 0u);
  // One shared hub receiver on the shard output, not one per consumer.
  keep->stop();
  all->stop();
  monitor.stop();
  EXPECT_EQ(keep_count.load(), kFiles);
  EXPECT_EQ(all_count.load(), 2 * kFiles);
}

TEST_F(FlowControlTest, HubConsumerWithMetricsDeliversWithoutReceiver) {
  // Regression: a consumer has no transport receiver of its own, and the
  // instrumented delivery path once dereferenced one on the first
  // non-empty batch when a metrics registry was wired.
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);

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
  o.collector.cache_size = 64;  // the monitor's own hub delivers; the dead one is extra
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

TEST_F(FlowControlTest, HundredSubscribersRunOnThePoolOnly) {
  // Delivery runs on the hub's worker pool: 100 subscribers' callbacks
  // share at most pool_size() threads instead of one thread each.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);
  constexpr int kConsumers = 100;
  constexpr int kFiles = 400;
  std::mutex threads_mu;
  std::set<std::thread::id> threads;
  std::atomic<int> delivered{0};
  std::vector<std::unique_ptr<Consumer>> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.push_back(monitor.make_consumer(
        "c" + std::to_string(c), ConsumerOptions{}, [&](const core::EventBatch& batch) {
          {
            std::lock_guard lock(threads_mu);
            threads.insert(std::this_thread::get_id());
          }
          delivered.fetch_add(static_cast<int>(batch.size()));
        }));
  }
  ASSERT_TRUE(monitor.start().is_ok());
  for (auto& consumer : consumers) ASSERT_TRUE(consumer->start().is_ok());
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return delivered.load() >= kConsumers * kFiles; }));
  EXPECT_EQ(monitor.hub().delivery_workers(), monitor.hub().pool_size());
  for (auto& consumer : consumers) consumer->stop();
  monitor.stop();
  EXPECT_EQ(delivered.load(), kConsumers * kFiles);
  EXPECT_LE(threads.size(), monitor.hub().pool_size());
}

TEST_F(FlowControlTest, BlockedCallbacksDoNotStallAHealthySubscriber) {
  // More callbacks block than the pool has workers: the handoff starts
  // extra workers, so the healthy subscriber — scheduled after every
  // blocked one — still receives every event. Released, the pool
  // shrinks back to its standing size.
  LustreFs fs(LustreFsOptions{}, clock);
  obs::MetricsRegistry registry;
  ScalableMonitorOptions o = options(/*with_store=*/false);
  o.aggregator.metrics = &registry;
  ScalableMonitor monitor(fs, o, clock);
  const std::size_t blocked_count = monitor.hub().pool_size() + 1;

  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::atomic<std::size_t> blocked_entered{0};
  std::atomic<int> healthy_count{0};
  std::vector<std::unique_ptr<Consumer>> blocked;
  for (std::size_t b = 0; b < blocked_count; ++b) {
    blocked.push_back(monitor.make_consumer(
        "blocked" + std::to_string(b), ConsumerOptions{}, [&](const core::EventBatch&) {
          blocked_entered.fetch_add(1);
          std::unique_lock lock(gate_mu);
          gate_cv.wait(lock, [&] { return !gate_closed.load(); });
        }));
  }
  auto healthy = monitor.make_consumer("healthy", ConsumerOptions{},
                                       [&](const StdEvent&) { healthy_count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  for (auto& consumer : blocked) ASSERT_TRUE(consumer->start().is_ok());
  ASSERT_TRUE(healthy->start().is_ok());

  constexpr int kFiles = 300;
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return healthy_count.load() >= kFiles; }))
      << "healthy=" << healthy_count.load() << " blocked=" << blocked_entered.load()
      << " workers=" << monitor.hub().delivery_workers();
  // Every blocked callback holds a worker, so the healthy subscriber
  // ran on a worker started by the handoff.
  EXPECT_TRUE(wait_until([&] { return blocked_entered.load() >= blocked_count; }));
  EXPECT_GT(monitor.hub().delivery_workers(), monitor.hub().pool_size());
  EXPECT_GE(registry.counter("flow.delivery_handoffs").value(), 2u);

  gate_closed.store(false);
  gate_cv.notify_all();
  EXPECT_TRUE(wait_until(
      [&] { return monitor.hub().delivery_workers() == monitor.hub().pool_size(); }));
  healthy->stop();
  for (auto& consumer : blocked) consumer->stop();
  monitor.stop();
  EXPECT_EQ(healthy_count.load(), kFiles);
}

TEST_F(FlowControlTest, StopReturnsWhileASiblingCallbackIsBlocked) {
  // stop() waits only for its own subscription's turn, never for the
  // worker another subscriber's callback holds.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);
  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::atomic<bool> blocked_entered{false};
  std::atomic<int> count{0};
  auto blocked = monitor.make_consumer("blocked", ConsumerOptions{},
                                       [&](const core::EventBatch&) {
                                         blocked_entered.store(true);
                                         std::unique_lock lock(gate_mu);
                                         gate_cv.wait(lock, [&] { return !gate_closed.load(); });
                                       });
  auto other = monitor.make_consumer("other", ConsumerOptions{},
                                     [&](const StdEvent&) { count.fetch_add(1); });
  GateGuard guard{gate_closed, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(blocked->start().is_ok());
  ASSERT_TRUE(other->start().is_ok());
  constexpr int kFiles = 64;
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return blocked_entered.load() && count.load() >= kFiles; }));

  const auto before = std::chrono::steady_clock::now();
  other->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - before, std::chrono::seconds(1));

  gate_closed.store(false);
  gate_cv.notify_all();
  blocked->stop();
  monitor.stop();
  EXPECT_EQ(count.load(), kFiles);
}

TEST_F(FlowControlTest, CrashRestartMidStreamIsExactlyOnce) {
  // Crash a hub consumer mid-stream: hub items keep queueing for it
  // while it is down. restart() replays the outage from the acked cursor
  // and the queued items then skip what the replay delivered, so every
  // record arrives exactly once.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(), clock);
  std::mutex mu;
  std::map<std::pair<std::uint64_t, core::EventKind>, int> seen;
  std::atomic<int> total{0};
  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 1;
  auto consumer = monitor.make_consumer("c", consumer_options, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++seen[{e.cookie, e.kind}];
    total.fetch_add(1);
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  constexpr int kPerPhase = 200;
  int created = 0;
  auto create_phase = [&] {
    for (int i = 0; i < kPerPhase; ++i, ++created)
      ASSERT_TRUE(fs.create("/f" + std::to_string(created)).is_ok());
  };
  create_phase();
  ASSERT_TRUE(wait_until([&] { return total.load() >= kPerPhase / 2; }));
  consumer->crash();
  create_phase();
  ASSERT_TRUE(wait_until([&] {
    return monitor.sharded().persisted() >= static_cast<std::uint64_t>(2 * kPerPhase);
  }));
  ASSERT_TRUE(consumer->restart().is_ok());
  create_phase();
  ASSERT_TRUE(wait_until([&] { return total.load() >= 3 * kPerPhase; }));
  consumer->stop();
  monitor.stop();

  std::lock_guard lock(mu);
  EXPECT_EQ(total.load(), 3 * kPerPhase);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(3 * kPerPhase));
  for (const auto& [key, n] : seen) EXPECT_EQ(n, 1) << "cookie " << key.first;
}

TEST_F(FlowControlTest, CatchAllConsumersShareTheDecodedFrame) {
  // A hub item that matched its whole frame reaches the callback as the
  // hub's shared decoded batch itself: two catch-all consumers see the
  // same EventBatch object for every frame, no per-subscriber copy.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);
  using FrameKey = std::pair<const core::EventBatch*, common::EventId>;
  std::mutex mu;
  std::set<FrameKey> frames_a;
  std::set<FrameKey> frames_b;
  std::atomic<int> count_a{0};
  std::atomic<int> count_b{0};
  auto recorder = [&](std::set<FrameKey>& frames, std::atomic<int>& count) {
    return [&mu, frames = &frames, count = &count](const core::EventBatch& batch) {
      std::lock_guard lock(mu);
      frames->insert({&batch, batch.events.front().id});
      count->fetch_add(static_cast<int>(batch.size()));
    };
  };
  auto a = monitor.make_consumer("a", ConsumerOptions{}, recorder(frames_a, count_a));
  auto b = monitor.make_consumer("b", ConsumerOptions{}, recorder(frames_b, count_b));
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(a->start().is_ok());
  ASSERT_TRUE(b->start().is_ok());
  constexpr int kFiles = 256;
  for (int i = 0; i < kFiles; ++i)
    ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return count_a.load() >= kFiles && count_b.load() >= kFiles; }));
  a->stop();
  b->stop();
  monitor.stop();
  std::lock_guard lock(mu);
  EXPECT_FALSE(frames_a.empty());
  EXPECT_EQ(frames_a, frames_b);
}

TEST_F(FlowControlTest, RefusedHubSendIsFilledFromTheStore) {
  // A shard fans a frame out only after committing it and never retries
  // a refused send: the hub sees the id gap at the shard's next frame
  // and delivers the refused frame's records from the store first.
  // Driven synchronously, so exactly one shard-to-hub send is refused.
  obs::MetricsRegistry registry;
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  o.aggregator.metrics = &registry;
  ScalableMonitor monitor(fs, o, clock);
  std::mutex mu;
  std::map<std::uint64_t, int> cookies;
  auto consumer = monitor.make_consumer("c", ConsumerOptions{}, [&](const StdEvent& e) {
    std::lock_guard lock(mu);
    ++cookies[e.cookie];
  });
  ASSERT_TRUE(monitor.hub().start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  int created = 0;
  // One frame per round: the collector publishes every new record into
  // the shard's inbox, then the shard commits it and sends it on.
  auto round = [&](int creates, bool refuse_fanout) {
    for (int i = 0; i < creates; ++i)
      ASSERT_TRUE(fs.create("/f" + std::to_string(created++)).is_ok());
    ASSERT_GT(monitor.collector(0).drain_once(), 0u);
    if (refuse_fanout) {
      chaos::FaultPlan plan;
      chaos::FaultRule rule;
      rule.point = "transport.before_send";
      rule.action = chaos::FaultAction::kDrop;
      plan.rules.push_back(rule);
      chaos::FaultInjector::instance().arm(std::move(plan));
    }
    EXPECT_EQ(monitor.aggregator().drain_once(), 1u);
    if (refuse_fanout) {
      EXPECT_EQ(chaos::FaultInjector::instance().fires("transport.before_send"), 1u);
      chaos::FaultInjector::instance().disarm();
    }
    monitor.collector(0).apply_acked_clear();
  };
  round(5, false);
  round(7, true);
  round(4, false);

  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(mu);
    return cookies.size() >= 16;
  }));
  consumer->stop();
  monitor.hub().stop();
  EXPECT_EQ(registry.counter("flow.gap_filled_events").value(), 7u);
  std::lock_guard lock(mu);
  ASSERT_EQ(cookies.size(), 16u);
  for (std::uint64_t cookie = 1; cookie <= 16; ++cookie)
    EXPECT_EQ(cookies[cookie], 1) << "cookie " << cookie;
}

TEST_F(FlowControlTest, RenameIntoFilteredSubtreeDeliversMovedTo) {
  // A rename from outside a consumer's subtree into it matches only its
  // MOVED_TO half, which shares the MOVED_FROM's cookie. Duplicates are
  // decided by id, not cookie, so the MOVED_TO is fresh and delivered.
  LustreFs fs(LustreFsOptions{}, clock);
  fs.mkdir("/keep");
  fs.mkdir("/drop");
  ScalableMonitor monitor(fs, options(/*with_store=*/false), clock);
  std::mutex mu;
  std::vector<StdEvent> kept;
  ConsumerOptions keep_options;
  core::FilterRule keep_rule;
  keep_rule.root = "/keep";
  keep_options.rules.push_back(keep_rule);
  auto keep = monitor.make_consumer("keep", keep_options, [&](const StdEvent& event) {
    std::lock_guard lock(mu);
    kept.push_back(event);
  });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(keep->start().is_ok());

  constexpr int kFiles = 50;
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = "/f" + std::to_string(i);
    ASSERT_TRUE(fs.create("/drop" + name).is_ok());
    ASSERT_TRUE(fs.rename("/drop" + name, "/keep" + name).is_ok());
  }
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(mu);
    return kept.size() >= static_cast<std::size_t>(kFiles);
  }));
  keep->stop();
  monitor.stop();
  std::lock_guard lock(mu);
  ASSERT_EQ(kept.size(), static_cast<std::size_t>(kFiles));
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_EQ(kept[static_cast<std::size_t>(i)].kind, core::EventKind::kMovedTo);
    EXPECT_EQ(kept[static_cast<std::size_t>(i)].path, "/keep/f" + std::to_string(i));
  }
}


TEST_F(FlowControlTest, StopDuringCatchUpCatchesUpAgainOnStart) {
  // stop() in the middle of a demoted consumer's store catch-up ends the
  // catch-up before promotion. start() must resume it: the consumer is
  // promoted again and every event arrives exactly once.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options();
  o.flow.credit_window = 256;
  ScalableMonitor monitor(fs, o, clock);
  std::atomic<bool> gate_closed{true};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::mutex seen_mu;
  std::vector<common::EventId> ids;
  ConsumerOptions copt;
  copt.ack_interval = 16;
  copt.replay_page = 1;  // a slow catch-up, so stop() lands inside it
  auto stalled = monitor.make_consumer("stalled", copt, [&](const StdEvent& event) {
    {
      std::unique_lock lock(gate_mu);
      gate_cv.wait(lock, [&] { return !gate_closed.load(); });
    }
    std::lock_guard lock(seen_mu);
    ids.push_back(event.id);
  });
  auto delivered = [&] {
    std::lock_guard lock(seen_mu);
    return ids.size();
  };
  GateGuard guard{gate_closed, gate_cv};
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(stalled->start().is_ok());
  constexpr int kFirst = 5000;
  constexpr int kSecond = 2000;
  for (int i = 0; i < kFirst; ++i) ASSERT_TRUE(fs.create("/f" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kDemoted; }));
  gate_closed.store(false);
  gate_cv.notify_all();
  // The 256-credit window plus at most one frame drains live; past that
  // the consumer is paging the store one event at a time.
  ASSERT_TRUE(wait_until([&] { return delivered() > 1000; }));
  stalled->stop();
  ASSERT_EQ(stalled->flow_state(), FlowState::kDemoted);
  ASSERT_TRUE(stalled->start().is_ok());
  for (int i = 0; i < kSecond; ++i) ASSERT_TRUE(fs.create("/g" + std::to_string(i)).is_ok());
  ASSERT_TRUE(wait_until([&] { return delivered() >= kFirst + kSecond; }))
      << "delivered=" << delivered() << " state=" << to_string(stalled->flow_state());
  EXPECT_TRUE(wait_until([&] { return stalled->flow_state() == FlowState::kLive; }));
  stalled->stop();
  monitor.stop();
  std::lock_guard lock(seen_mu);
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kFirst + kSecond));
  std::set<common::EventId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size()) << "duplicate delivery";
  EXPECT_EQ(*unique.rbegin(), static_cast<common::EventId>(kFirst + kSecond));
}

TEST_F(FlowControlTest, ResumeBeforeParkKeepsDelivering) {
  // A handler that parks its subscription starts a catch-up that can
  // finish, and call resume(), before the handler has returned kPark
  // (the backlog was already within promotion range). Here the catch-up
  // always wins that race: it promotes and resumes on a thread the
  // handler joins before returning. The worker must not park the
  // subscription then, or the hub would never deliver to it again.
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions o = options(/*with_store=*/false);
  o.flow.credit_window = 1024;
  ScalableMonitor monitor(fs, o, clock);
  FanOutHub& hub = monitor.hub();
  auto sub = hub.subscribe("raw", {});
  std::atomic<int> promotions{0};
  std::atomic<bool> acking{false};
  std::atomic<std::size_t> live_after_promotion{0};
  hub.attach(*sub, [&](const HubItem& item) {
    if (item.kind == HubItem::Kind::kDemoted) {
      std::thread([&] {
        // A frame pumped between the two reads can leave the cursor
        // out of promotion range; try again.
        while (!hub.try_promote(*sub, hub.head_cursor())) std::this_thread::yield();
        promotions.fetch_add(1);
        acking.store(true);
        hub.resume(*sub);
      }).join();
      return FanOutHub::Turn::kPark;
    }
    if (item.kind == HubItem::Kind::kBatch && acking.load()) {
      // From the first promotion on, ack everything: the window outlasts
      // the 500 events at the end, so the subscription stays live.
      VectorCursor cursor(monitor.sharded().shard_count());
      cursor.advance(item.shard, item.batch->events.back().id);
      hub.acknowledge(*sub, cursor, item.indices.size());
      live_after_promotion.fetch_add(item.indices.size());
    }
    return FanOutHub::Turn::kContinue;
  });
  ASSERT_TRUE(monitor.start().is_ok());
  // Without acks the window runs out; the next frame demotes.
  std::uint64_t created = 0;
  for (; created < 20000 && promotions.load() == 0; ++created)
    ASSERT_TRUE(fs.create("/f" + std::to_string(created)).is_ok());
  ASSERT_TRUE(wait_until([&] { return promotions.load() >= 1; }))
      << "created " << created << ", pumped " << hub.head_cursor().sum() << ", state "
      << to_string(hub.state(*sub));
  // Let the events created before the promotion drain (they may demote
  // it again, and it is promoted again the same way) until it is live
  // with a full window.
  ASSERT_TRUE(wait_until([&] {
    return hub.head_cursor().sum() >= created && hub.state(*sub) == FlowState::kLive &&
           hub.credits(*sub) == static_cast<std::int64_t>(o.flow.credit_window);
  })) << "state " << to_string(hub.state(*sub)) << ", credits " << hub.credits(*sub);
  const std::size_t before = live_after_promotion.load();
  constexpr std::size_t kAfter = 500;
  for (std::size_t i = 0; i < kAfter; ++i)
    ASSERT_TRUE(fs.create("/g" + std::to_string(i)).is_ok());
  EXPECT_TRUE(wait_until([&] { return live_after_promotion.load() - before >= kAfter; }))
      << "delivered after promotion: " << live_after_promotion.load() - before;
  EXPECT_EQ(hub.state(*sub), FlowState::kLive);
  hub.detach(*sub);
  hub.unsubscribe(*sub);
  monitor.stop();
}

}  // namespace
}  // namespace fsmon::scalable
