// Property test: whatever the crash/checkpoint/restart schedule, the
// recovered namespace index is byte-identical to a from-scratch fold of
// the full replayed stream. The workload includes directory renames
// (subtree moves), unlink-then-recreate of the same path, and rmdir;
// the schedule includes checkpoints at arbitrary points and crashes
// with un-checkpointed suffixes.
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/nsindex/index_consumer.hpp"
#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::nsindex {
namespace {

using lustre::LustreFs;
using lustre::LustreFsOptions;

class ShadowWorkload {
 public:
  ShadowWorkload(LustreFs& fs, std::uint64_t seed) : fs_(fs), rng_(seed) {}

  /// Run one random namespace operation; returns events it published.
  std::uint64_t step() {
    switch (rng_() % 10) {
      case 0:
      case 1: return do_create();
      case 2: return do_mkdir();
      case 3:
      case 4: return do_modify();
      case 5: return do_rename_file();
      case 6: return do_rename_dir();
      case 7: return do_unlink();
      case 8: return do_recreate();
      default: return do_rmdir();
    }
  }

 private:
  std::string pick(const std::vector<std::string>& from) {
    return from[rng_() % from.size()];
  }
  std::string fresh_name(const std::string& dir) {
    const std::string name = (dir == "/" ? "" : dir) + "/n" + std::to_string(next_++);
    return name;
  }

  std::uint64_t do_create() {
    const std::string path = fresh_name(pick(dirs_));
    if (!fs_.create(path).is_ok()) return 0;
    files_.push_back(path);
    return 1;
  }
  std::uint64_t do_mkdir() {
    const std::string path = fresh_name(pick(dirs_));
    if (!fs_.mkdir(path).is_ok()) return 0;
    dirs_.push_back(path);
    return 1;
  }
  std::uint64_t do_modify() {
    if (files_.empty()) return do_create();
    if (!fs_.modify(pick(files_), 1 + rng_() % 4096).is_ok()) return 0;
    return 1;
  }
  std::uint64_t do_rename_file() {
    if (files_.empty()) return do_create();
    const std::size_t at = rng_() % files_.size();
    const std::string from = files_[at];
    const std::string to = fresh_name(pick(dirs_));
    if (!fs_.rename(from, to).is_ok()) return 0;
    files_[at] = to;
    return 2;  // MOVED_FROM + MOVED_TO
  }
  std::uint64_t do_rename_dir() {
    if (dirs_.size() < 2) return do_mkdir();
    const std::size_t at = 1 + rng_() % (dirs_.size() - 1);  // never "/"
    const std::string from = dirs_[at];
    // A destination under the source would be a cycle; pick parents
    // outside the moved subtree.
    std::vector<std::string> candidates;
    for (const std::string& dir : dirs_)
      if (dir != from && dir.rfind(from + "/", 0) != 0) candidates.push_back(dir);
    if (candidates.empty()) return 0;
    const std::string to = fresh_name(pick(candidates));
    if (!fs_.rename(from, to).is_ok()) return 0;
    // Rewrite every shadow path under the moved subtree.
    const auto rewrite = [&](std::string& path) {
      if (path == from)
        path = to;
      else if (path.rfind(from + "/", 0) == 0)
        path = to + path.substr(from.size());
    };
    for (std::string& dir : dirs_) rewrite(dir);
    for (std::string& file : files_) rewrite(file);
    return 2;
  }
  std::uint64_t do_unlink() {
    if (files_.empty()) return do_create();
    const std::size_t at = rng_() % files_.size();
    const std::string path = files_[at];
    if (!fs_.unlink(path).is_ok()) return 0;
    files_.erase(files_.begin() + static_cast<std::ptrdiff_t>(at));
    return 1;
  }
  /// The unlink-then-recreate-same-path pattern: the index must mint a
  /// fresh identity, not resurrect the old node.
  std::uint64_t do_recreate() {
    if (files_.empty()) return do_create();
    const std::string path = pick(files_);
    if (!fs_.unlink(path).is_ok()) return 0;
    if (!fs_.create(path).is_ok()) return 1;
    return 2;
  }
  std::uint64_t do_rmdir() {
    if (dirs_.size() < 2) return do_mkdir();
    const std::string path = dirs_[1 + rng_() % (dirs_.size() - 1)];
    // Only empty directories can be removed; let the fs veto.
    if (!fs_.rmdir(path).is_ok()) return 0;
    std::erase(dirs_, path);
    return 1;
  }

  LustreFs& fs_;
  std::mt19937_64 rng_;
  std::vector<std::string> dirs_{{"/"}};
  std::vector<std::string> files_;
  std::uint64_t next_ = 0;
};

bool wait_for(const std::function<bool()>& pred,
              std::chrono::seconds timeout = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

class NsIndexPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_nsprop_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  common::RealClock clock;
};

/// One full randomized schedule at one shard (byte-determinism holds:
/// a single dense id sequence fixes node-id assignment completely).
void run_schedule(const std::filesystem::path& dir, common::RealClock& clock,
                  std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  LustreFs fs(LustreFsOptions{}, clock);
  scalable::ScalableMonitorOptions options;
  options.collector.cache_size = 64;
  eventstore::EventStoreOptions store;
  store.directory = dir / ("store_" + std::to_string(seed));
  store.flush_each_append = true;
  options.aggregator.store = store;
  scalable::ScalableMonitor monitor(fs, options, clock);
  ASSERT_TRUE(monitor.start().is_ok());

  const auto make_options = [&] {
    IndexConsumerOptions o;
    o.snapshot_dir = dir / ("snaps_" + std::to_string(seed));
    o.snapshot_every = 0;
    return o;
  };
  int generation = 0;
  auto consumer = std::make_unique<IndexConsumer>(
      monitor.hub(), monitor.sharded(),
      "nsidx-g" + std::to_string(generation), make_options());
  ASSERT_TRUE(consumer->start().is_ok());

  ShadowWorkload workload(fs, seed);
  std::mt19937_64 schedule_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uint64_t expected = 0;

  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 25; ++op) expected += workload.step();
    ASSERT_TRUE(wait_for([&] { return consumer->index().applied_seq() == expected; }))
        << "round " << round << ": applied " << consumer->index().applied_seq()
        << " of " << expected;

    switch (schedule_rng() % 3) {
      case 0:
        // Checkpoint here: later events are the recovery delta.
        ASSERT_TRUE(consumer->checkpoint().is_ok());
        break;
      case 1: {
        // Crash (acks frozen at the last checkpoint) and restart: a new
        // consumer recovers from snapshot + delta replay mid-schedule.
        consumer.reset();
        ++generation;
        consumer = std::make_unique<IndexConsumer>(
            monitor.hub(), monitor.sharded(),
            "nsidx-g" + std::to_string(generation), make_options());
        ASSERT_TRUE(consumer->start().is_ok());
        ASSERT_TRUE(
            wait_for([&] { return consumer->index().applied_seq() == expected; }))
            << "recovery stalled at " << consumer->index().applied_seq();
        break;
      }
      default:
        break;  // keep running
    }
  }

  ASSERT_TRUE(wait_for([&] { return consumer->index().applied_seq() == expected; }));

  // Reference: fold the whole persisted history from scratch. Wait for
  // the async persister to catch up to everything the index applied.
  ASSERT_TRUE(wait_for([&] {
    NamespaceIndex fresh;
    auto folded = fold_namespace(monitor.sharded(), fresh);
    return folded.is_ok() && folded.value() >= expected;
  }));
  NamespaceIndex reference;
  ASSERT_TRUE(fold_namespace(monitor.sharded(), reference).is_ok());

  // Byte-exact: same serialized image, same dump, same query answers.
  std::vector<std::byte> live_image;
  std::vector<std::byte> reference_image;
  consumer->index().serialize(live_image);
  reference.serialize(reference_image);
  EXPECT_EQ(live_image, reference_image);
  EXPECT_EQ(consumer->index().debug_dump(), reference.debug_dump());

  // Spot-check the query surface against the reference.
  auto live_root = consumer->index().list_dir("/");
  auto ref_root = reference.list_dir("/");
  ASSERT_TRUE(live_root.is_ok());
  ASSERT_TRUE(ref_root.is_ok());
  ASSERT_EQ(live_root.value().size(), ref_root.value().size());
  for (std::size_t i = 0; i < live_root.value().size(); ++i) {
    EXPECT_EQ(live_root.value()[i].name, ref_root.value()[i].name);
    EXPECT_EQ(live_root.value()[i].node_id, ref_root.value()[i].node_id);
  }
  auto live_top = consumer->index().activity_topk(5);
  auto ref_top = reference.activity_topk(5);
  ASSERT_EQ(live_top.size(), ref_top.size());
  for (std::size_t i = 0; i < live_top.size(); ++i) {
    EXPECT_EQ(live_top[i].path, ref_top[i].path);
    EXPECT_EQ(live_top[i].events, ref_top[i].events);
  }

  consumer->stop();
  monitor.stop();
}

TEST_F(NsIndexPropertyTest, RecoveredStateMatchesFromScratchFold) {
  for (std::uint64_t seed : {11u, 23u, 47u}) run_schedule(dir_, clock, seed);
}

TEST_F(NsIndexPropertyTest, TwoShardFoldMatchesStructurally) {
  // Across shards the apply interleaving (and so node-id assignment) is
  // not deterministic, but the per-path state is: every path's events
  // come from its owning MDT in dense order. Compare structure, not
  // bytes.
  LustreFsOptions fs_options;
  fs_options.mdt_count = 2;
  LustreFs fs(fs_options, clock);
  scalable::ScalableMonitorOptions options;
  options.collector.cache_size = 64;
  options.shards = 2;
  eventstore::EventStoreOptions store;
  store.directory = dir_ / "store2";
  store.flush_each_append = true;
  options.aggregator.store = store;
  scalable::ScalableMonitor monitor(fs, options, clock);
  ASSERT_TRUE(monitor.start().is_ok());

  IndexConsumerOptions ic_options;
  ic_options.snapshot_dir = dir_ / "snaps2";
  ic_options.snapshot_every = 0;
  IndexConsumer consumer(monitor.hub(), monitor.sharded(), "nsidx2",
                         std::move(ic_options));
  ASSERT_TRUE(consumer.start().is_ok());

  std::uint64_t expected = 0;
  for (int i = 0; i < 12; ++i) {
    const std::string dir = "/tree" + std::to_string(i);
    ASSERT_TRUE(fs.mkdir(dir).is_ok());
    ASSERT_TRUE(fs.create(dir + "/a").is_ok());
    ASSERT_TRUE(fs.modify(dir + "/a", 128).is_ok());
    expected += 3;
  }
  ASSERT_TRUE(wait_for([&] { return consumer.index().applied_seq() == expected; }));
  ASSERT_TRUE(consumer.checkpoint().is_ok());

  NamespaceIndex reference;
  ASSERT_TRUE(wait_for([&] {
    NamespaceIndex fresh;
    auto folded = fold_namespace(monitor.sharded(), fresh);
    return folded.is_ok() && folded.value() >= expected;
  }));
  ASSERT_TRUE(fold_namespace(monitor.sharded(), reference).is_ok());

  EXPECT_EQ(consumer.index().node_count(), reference.node_count());
  EXPECT_EQ(consumer.index().dir_count(), reference.dir_count());
  auto live_root = consumer.index().list_dir("/");
  auto ref_root = reference.list_dir("/");
  ASSERT_TRUE(live_root.is_ok());
  ASSERT_TRUE(ref_root.is_ok());
  ASSERT_EQ(live_root.value().size(), ref_root.value().size());
  for (std::size_t i = 0; i < live_root.value().size(); ++i) {
    EXPECT_EQ(live_root.value()[i].name, ref_root.value()[i].name);
    const std::string path = "/" + live_root.value()[i].name;
    auto live_node = consumer.index().lookup(path);
    auto ref_node = reference.lookup(path);
    ASSERT_TRUE(live_node.has_value());
    ASSERT_TRUE(ref_node.has_value());
    EXPECT_EQ(live_node->events, ref_node->events);
    EXPECT_EQ(live_node->is_dir, ref_node->is_dir);
    EXPECT_EQ(live_node->last_event, ref_node->last_event);
  }

  consumer.stop();
  monitor.stop();
}

}  // namespace
}  // namespace fsmon::nsindex
