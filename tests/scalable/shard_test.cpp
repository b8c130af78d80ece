// Sharded aggregation tier: the shard map's stable partitioning, the
// vector cursor, the router's refusal semantics, the replay paging, and the
// acceptance-critical merged-view contract — the k-way merged replay is
// permutation-free (each shard's subsequence is byte-identical to that
// shard's own replay) and, as a multiset with ids normalized away, the
// 4-shard pipeline's output equals a 1-shard run of the same workload.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
#include "src/scalable/scalable_monitor.hpp"
#include "src/scalable/shard_map.hpp"

namespace fsmon::scalable {
namespace {

using core::StdEvent;
using lustre::LustreFs;
using lustre::LustreFsOptions;

TEST(ShardMapTest, TrailingIndexMapsRoundRobin) {
  ShardMap map(4);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(map.shard_of("lustre:MDT" + std::to_string(i)), i % 4)
        << "MDT" << i;
  }
}

TEST(ShardMapTest, SingleShardAlwaysZero) {
  ShardMap map(1);
  EXPECT_EQ(map.shard_of("lustre:MDT7"), 0u);
  EXPECT_EQ(map.shard_of("anything"), 0u);
  EXPECT_EQ(map.shard_of(""), 0u);
}

TEST(ShardMapTest, HashFallbackIsStableAndInRange) {
  ShardMap a(4);
  ShardMap b(4);
  for (const std::string source : {"no-digits", "inotify", "", "weird source"}) {
    const std::size_t shard = a.shard_of(source);
    EXPECT_LT(shard, 4u) << source;
    // Deterministic across independently constructed maps: every party
    // evaluating the map locally must agree.
    EXPECT_EQ(shard, b.shard_of(source)) << source;
  }
}

TEST(ShardMapTest, PinOverridesEveryOtherRule) {
  ShardMap map(4);
  ASSERT_EQ(map.shard_of("lustre:MDT1"), 1u);
  map.pin("lustre:MDT1", 3);
  EXPECT_EQ(map.shard_of("lustre:MDT1"), 3u);
  EXPECT_EQ(map.describe("lustre:MDT1"), "lustre:MDT1 -> shard3 (pinned)");
}

TEST(ShardMapTest, DescribeShowsTheRuleThatFired) {
  ShardMap map(4);
  EXPECT_EQ(map.describe("lustre:MDT6"), "lustre:MDT6 -> shard2 (index)");
  const std::string hashed = map.describe("no-digits");
  EXPECT_TRUE(hashed.find("(fnv1a)") != std::string::npos) << hashed;
}

TEST(VectorCursorTest, AdvanceIsMonotonicAndGrows) {
  VectorCursor cursor;
  cursor.advance(2, 10);
  ASSERT_EQ(cursor.size(), 3u);
  EXPECT_EQ(cursor.at(2), 10u);
  cursor.advance(2, 7);  // never moves backwards
  EXPECT_EQ(cursor.at(2), 10u);
  cursor.advance(0, 5);
  EXPECT_EQ(cursor.sum(), 15u);
}

std::string make_frame(const std::string& source, std::uint64_t first_cookie,
                       int count) {
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

class ShardRouterTest : public ::testing::Test {
 protected:
  void TearDown() override { chaos::FaultInjector::instance().disarm(); }

  common::RealClock clock_;
};

TEST_F(ShardRouterTest, RoutesEachSourceToItsMapShard) {
  msgq::Bus bus;
  ShardedAggregatorOptions options;
  options.shards = 4;
  ShardedAggregator sharded(bus, "aggregator", options, clock_);

  for (std::size_t i = 0; i < 4; ++i) {
    const auto result = sharded.router().route(
        "t", make_frame("lustre:MDT" + std::to_string(i), 1, 3));
    EXPECT_EQ(result.shard, i);
    EXPECT_EQ(result.accepted, 1u);
  }
  EXPECT_EQ(sharded.router().frames_routed(), 4u);

  // Each shard pumps exactly its own source's events: the partitioning
  // held on the write path, not just in the map.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(sharded.shard(k).drain_once(), 1u) << "shard " << k;
    EXPECT_EQ(sharded.shard(k).aggregated(), 3u) << "shard " << k;
  }
}

TEST_F(ShardRouterTest, FaultRefusalSignalsCollectorRewind) {
  msgq::Bus bus;
  ShardedAggregatorOptions options;
  options.shards = 2;
  ShardedAggregator sharded(bus, "aggregator", options, clock_);

  chaos::FaultPlan plan;
  chaos::FaultRule rule;
  rule.point = "router.before_route";
  rule.action = chaos::FaultAction::kDrop;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  chaos::FaultInjector::instance().arm(std::move(plan));

  // A dropped link must look like a refusal (accepted == 0 with
  // subscribers > 0), never a silent accept: the collector then rewinds
  // and replays, so no frame is ever in nobody's custody.
  const auto refused = sharded.router().route("t", make_frame("lustre:MDT0", 1, 2));
  EXPECT_EQ(refused.accepted, 0u);
  EXPECT_GT(refused.subscribers, 0u);
  EXPECT_EQ(sharded.router().frames_refused(), 1u);

  const auto ok = sharded.router().route("t", make_frame("lustre:MDT0", 1, 2));
  EXPECT_EQ(ok.accepted, 1u);
  EXPECT_EQ(sharded.shard(0).drain_once(), 1u);
  EXPECT_EQ(sharded.shard(0).aggregated(), 2u);
}

TEST_F(ShardRouterTest, UnroutableFrameFallsBackToShardZero) {
  msgq::Bus bus;
  ShardedAggregatorOptions options;
  options.shards = 4;
  ShardedAggregator sharded(bus, "aggregator", options, clock_);

  const auto result = sharded.router().route("t", "not a batch frame");
  EXPECT_EQ(result.shard, 0u);
  EXPECT_EQ(result.accepted, 1u);
}

class ShardMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_shard_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

std::vector<std::byte> event_bytes(const StdEvent& event, bool keep_id) {
  StdEvent copy = event;
  if (!keep_id) copy.id = 0;  // ids are per-shard sequences; normalize away
  return core::serialize_event(copy);
}

/// Deterministic workload + drain cadence shared by the 1- and 4-shard
/// runs: a ManualClock makes timestamps identical across runs, so the
/// cross-run comparison can be byte-exact rather than field-by-field.
void run_workload(lustre::LustreFs& fs, ScalableMonitor& monitor,
                  common::ManualClock& clock) {
  std::vector<std::string> dirs;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/d" + std::to_string(i);
    if (fs.mkdir(dir).is_ok()) dirs.push_back(dir);
  }
  for (int i = 0; i < 120; ++i) {
    clock.advance(std::chrono::milliseconds(1));
    const std::string path = dirs[static_cast<std::size_t>(i) % dirs.size()] +
                             "/f" + std::to_string(i);
    ASSERT_TRUE(fs.create(path).is_ok());
    if (i % 2 == 1) {
      ASSERT_TRUE(fs.rename(path, path + "r").is_ok());
    }
    if (i % 5 == 4) monitor.drain_collectors_once();
  }
  // Drain to quiescence: every record published, persisted, acked.
  while (monitor.drain_collectors_once() > 0) {
  }
}

TEST_F(ShardMergeTest, MergedViewIsPermutationFreeAndMatchesSingleShardRun) {
  auto run = [&](std::size_t shards, const std::filesystem::path& store_dir,
                 const std::function<void(ScalableMonitor&)>& inspect) {
    common::ManualClock clock;
    LustreFsOptions fs_options;
    fs_options.mdt_count = 4;
    LustreFs fs(fs_options, clock);
    ScalableMonitorOptions options;
    options.shards = shards;
    eventstore::EventStoreOptions store;
    store.directory = store_dir;
    options.aggregator.store = store;
    ScalableMonitor monitor(fs, options, clock);
    run_workload(fs, monitor, clock);
    inspect(monitor);
  };

  std::vector<std::vector<std::byte>> sharded_multiset;
  run(4, dir_ / "s4", [&](ScalableMonitor& monitor) {
    ShardedAggregator& sharded = monitor.sharded();
    VectorCursor cursor;
    auto merged = sharded.events_since(cursor);
    ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
    const std::vector<StdEvent>& events = merged.value();
    ASSERT_GT(events.size(), 0u);

    // Merged stream is timestamp-ordered and the cursor advanced over
    // everything.
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].timestamp, events[i].timestamp) << "at " << i;
    }
    EXPECT_EQ(cursor.sum(), sharded.last_event_id_sum());

    // Permutation-free: the merged stream restricted to shard k is
    // byte-identical (ids included) to shard k's own replay.
    for (std::size_t k = 0; k < sharded.shard_count(); ++k) {
      auto own = sharded.shard(k).events_since(0);
      ASSERT_TRUE(own.is_ok());
      std::vector<std::vector<std::byte>> own_bytes;
      for (const auto& event : own.value()) own_bytes.push_back(event_bytes(event, true));
      std::vector<std::vector<std::byte>> restricted;
      for (const auto& event : events) {
        if (sharded.map().shard_of(event.source) == k)
          restricted.push_back(event_bytes(event, true));
      }
      EXPECT_EQ(restricted, own_bytes) << "shard " << k;
    }

    // Paging invariance: the same merged stream comes back whatever the
    // page size, because the vector cursor carries the merge position.
    const auto whole = [&events] {
      std::vector<std::vector<std::byte>> bytes;
      for (const auto& event : events) bytes.push_back(event_bytes(event, true));
      return bytes;
    }();
    for (const std::size_t page : {std::size_t{1}, std::size_t{3}, std::size_t{1000}}) {
      VectorCursor paged_cursor;
      std::vector<std::vector<std::byte>> paged;
      while (true) {
        auto chunk = sharded.events_since(paged_cursor, page);
        ASSERT_TRUE(chunk.is_ok());
        if (chunk.value().empty()) break;
        for (const auto& event : chunk.value()) paged.push_back(event_bytes(event, true));
      }
      EXPECT_EQ(paged, whole) << "page size " << page;
    }

    for (const auto& event : events) sharded_multiset.push_back(event_bytes(event, false));
  });

  // The acceptance check: as a multiset with ids normalized away, the
  // 4-shard merged output IS the 1-shard output for the same workload.
  std::vector<std::vector<std::byte>> single_multiset;
  run(1, dir_ / "s1", [&](ScalableMonitor& monitor) {
    VectorCursor cursor;
    auto events = monitor.sharded().events_since(cursor);
    ASSERT_TRUE(events.is_ok());
    for (const auto& event : events.value())
      single_multiset.push_back(event_bytes(event, false));
  });

  std::sort(sharded_multiset.begin(), sharded_multiset.end());
  std::sort(single_multiset.begin(), single_multiset.end());
  EXPECT_EQ(sharded_multiset.size(), single_multiset.size());
  EXPECT_EQ(sharded_multiset, single_multiset);
}

// Decode-once: the merge compares timestamps peeked from the stored
// bytes and decodes only the event it emits. Records a page copied out
// of a store but did not reach are never decoded, so a paged replay of N
// events costs exactly N deserializer calls whatever the page size.
TEST_F(ShardMergeTest, MergedReplayDecodesEachEventExactlyOnce) {
  common::ManualClock clock;
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock);
  ScalableMonitorOptions options;
  options.shards = 4;
  eventstore::EventStoreOptions store;
  store.directory = dir_;
  options.aggregator.store = store;
  ScalableMonitor monitor(fs, options, clock);
  run_workload(fs, monitor, clock);
  ShardedAggregator& sharded = monitor.sharded();
  const std::uint64_t stored = sharded.last_event_id_sum();
  ASSERT_GT(stored, 0u);

  for (const std::size_t page : {std::size_t{7}, std::size_t{64}, std::size_t{SIZE_MAX}}) {
    VectorCursor cursor;
    std::uint64_t replayed = 0;
    const std::uint64_t before = core::codec_counters().deserialize_calls;
    for (;;) {
      auto chunk = sharded.events_since(cursor, page);
      ASSERT_TRUE(chunk.is_ok()) << chunk.status().to_string();
      if (chunk.value().empty()) break;
      replayed += chunk.value().size();
    }
    EXPECT_EQ(replayed, stored) << "page size " << page;
    EXPECT_EQ(core::codec_counters().deserialize_calls - before, stored)
        << "page size " << page;
  }
}

// Same scratch store directory, for the persister's own contract.
class AckDurabilityTest : public ShardMergeTest {};

// Acked implies durable: the persister releases a group's acks only
// after the group's WAL bytes are flushed to the file. A one-event group
// is far below the WAL writer's buffer, so without the flush the ack
// would go out while the record still sat in user space.
TEST_F(AckDurabilityTest, AckReleasedOnlyAfterTheGroupIsFlushed) {
  common::RealClock clock;
  msgq::Bus bus;
  ShardedAggregatorOptions options;
  eventstore::EventStoreOptions store;
  store.directory = dir_;
  options.aggregator.store = store;
  ShardedAggregator sharded(bus, "aggregator", options, clock);

  const std::string frame = make_frame("lustre:MDT0", 1, 1);
  // One event's WAL record (u32 length, u64 id, payload, u32 crc) is as
  // long as its one-event batch frame (u32 magic, u32 count, u32 length,
  // payload, u32 crc).
  const std::uint64_t record_bytes = frame.size();
  std::vector<std::uint64_t> on_disk_at_ack;
  sharded.set_ack_callback([&](std::string_view, std::uint64_t) {
    std::uint64_t bytes = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".wal") bytes += entry.file_size();
    }
    on_disk_at_ack.push_back(bytes);
  });
  ASSERT_EQ(sharded.router().route("t", frame).accepted, 1u);
  EXPECT_EQ(sharded.shard(0).drain_once(), 1u);
  ASSERT_EQ(on_disk_at_ack.size(), 1u);
  EXPECT_GE(on_disk_at_ack[0], record_bytes);
}

// A shard fans a group out only after committing it, so every id the
// hub has seen is in the store. The acks the hub forwards (the minimum
// of its subscriptions' acked cursors, never above its heads) therefore
// never outrun the store, and purge() removes exactly the acked ids.
TEST_F(AckDurabilityTest, ForwardedAcksNeverPassTheStoreAndPurgeExactlyThem) {
  common::RealClock clock;
  msgq::Bus bus;
  ShardedAggregatorOptions options;
  eventstore::EventStoreOptions store;
  store.directory = dir_;
  options.aggregator.store = store;
  // A slow commit: a frame fanned out before its append would reach the
  // callback long before the store holds it.
  options.aggregator.commit_latency = std::chrono::milliseconds(20);
  ShardedAggregator sharded(bus, "aggregator", options, clock);
  FanOutHub hub(sharded, FlowControlOptions{});
  ASSERT_TRUE(hub.start().is_ok());
  const eventstore::EventStore& stored = *sharded.shard(0).store();
  std::atomic<bool> ahead_of_store{false};
  std::atomic<int> delivered{0};
  ConsumerOptions consumer_options;
  consumer_options.hub = &hub;
  consumer_options.ack_interval = 4;
  Consumer consumer(sharded, "c", consumer_options, [&](const StdEvent& event) {
    if (event.id > stored.last_id() || hub.head_cursor().at(0) > stored.last_id())
      ahead_of_store.store(true);
    ++delivered;
  });
  ASSERT_TRUE(consumer.start().is_ok());

  // 4 + 4 + 2 events: the consumer acks after the first two frames
  // (every 4 events); the last two stay unacked.
  ASSERT_EQ(sharded.router().route("t", make_frame("lustre:MDT0", 1, 4)).accepted, 1u);
  ASSERT_EQ(sharded.router().route("t", make_frame("lustre:MDT0", 5, 4)).accepted, 1u);
  ASSERT_EQ(sharded.router().route("t", make_frame("lustre:MDT0", 9, 2)).accepted, 1u);
  ASSERT_EQ(sharded.shard(0).drain_once(), 3u);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (delivered.load() < 10 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(delivered.load(), 10);
  EXPECT_FALSE(ahead_of_store.load()) << "an id reached the hub before the store";
  EXPECT_EQ(sharded.purge(), 8u);
  EXPECT_EQ(stored.first_id(), 9u);
  EXPECT_EQ(sharded.purge(), 0u);
  consumer.stop();
  hub.stop();
}

// Regression (sharding review): the merged replay pages all shard stores
// BEFORE taking the consumer's delivery mutex. The inverted order would
// deadlock when a replay page blocks behind a slow consumer callback
// that itself waits on store progress. Run live traffic, a deliberately
// slow consumer, and concurrent replays; completion is the assertion.
TEST_F(ShardMergeTest, ConcurrentReplayAndSlowConsumerDoNotDeadlock) {
  common::RealClock clock;
  LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  LustreFs fs(fs_options, clock);
  ScalableMonitorOptions options;
  options.shards = 4;
  eventstore::EventStoreOptions store;
  store.directory = dir_;
  options.aggregator.store = store;
  ScalableMonitor monitor(fs, options, clock);

  std::atomic<std::uint64_t> delivered{0};
  ConsumerOptions consumer_options;
  consumer_options.ack_interval = 1;
  consumer_options.replay_page = 2;  // many small pages: maximal lock traffic
  auto consumer = monitor.make_consumer("slow", consumer_options,
                                        [&](const StdEvent&) {
                                          ++delivered;
                                          std::this_thread::sleep_for(
                                              std::chrono::microseconds(500));
                                        });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());

  std::jthread traffic([&] {
    for (int i = 0; i < 200; ++i) {
      fs.create("/t" + std::to_string(i));
      if (i % 16 == 15) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 10; ++i) {
    auto replayed = consumer->replay_historic(VectorCursor{}, /*rewind=*/false);
    EXPECT_TRUE(replayed.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  traffic.join();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (delivered.load() < 200 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(delivered.load(), 200u);
  consumer->stop();
  monitor.stop();
}

// A replay page may end between a rename's MOVED_FROM and MOVED_TO,
// which share one cookie. Duplicates are decided by id, so the next
// page's MOVED_TO is fresh: every page size delivers both halves.
TEST_F(ShardMergeTest, ReplayPagesNeverSplitARenamePair) {
  common::RealClock clock;
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitorOptions options;
  eventstore::EventStoreOptions store;
  store.directory = dir_;
  options.aggregator.store = store;
  ScalableMonitor monitor(fs, options, clock);
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(fs.create("/a").is_ok());
  ASSERT_TRUE(fs.rename("/a", "/b").is_ok());
  ASSERT_TRUE(fs.create("/c").is_ok());
  ASSERT_TRUE(fs.rename("/c", "/d").is_ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (monitor.aggregator().persisted() < 6 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(monitor.aggregator().persisted(), 6u);

  const std::vector<core::EventKind> expected = {
      core::EventKind::kCreate, core::EventKind::kMovedFrom, core::EventKind::kMovedTo,
      core::EventKind::kCreate, core::EventKind::kMovedFrom, core::EventKind::kMovedTo};
  for (std::size_t page = 1; page <= 4; ++page) {
    ConsumerOptions consumer_options;
    consumer_options.replay_page = page;
    std::vector<core::EventKind> kinds;
    auto consumer = monitor.make_consumer(
        "replay" + std::to_string(page), consumer_options,
        [&](const StdEvent& event) { kinds.push_back(event.kind); });
    // From the acked cursor: the id floor is live, as in catch-up.
    ASSERT_TRUE(consumer->replay_historic().is_ok());
    EXPECT_EQ(kinds, expected) << "replay_page " << page;
    EXPECT_EQ(consumer->duplicates_suppressed(), 0u) << "replay_page " << page;
  }
  monitor.stop();
}

}  // namespace
}  // namespace fsmon::scalable
