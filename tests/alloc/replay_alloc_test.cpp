// Heap-allocation budget of the merged historic replay.
//
// This binary replaces the global operator new with a counting one, so
// it runs apart from the other suites: every allocation in the process
// is counted, and the test reads the delta across one replay.
//
// The budget: a full Consumer::replay_historic over a 4-shard store
// costs at most 1.1 heap allocations per replayed event. Each event's
// path is longer than the small-string buffer, so the decoded event
// owns exactly one heap string; the page buffers, the merge heads and
// the delivery bookkeeping are amortized per page, and the batch reaches
// the callback without a copy.
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fsmon::scalable {
namespace {

class ReplayAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsmon_alloc_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ReplayAllocTest, MergedReplayAllocatesAboutOncePerEvent) {
  common::ManualClock clock;
  lustre::LustreFsOptions fs_options;
  fs_options.mdt_count = 4;
  lustre::LustreFs fs(fs_options, clock);
  ScalableMonitorOptions options;
  options.shards = 4;
  eventstore::EventStoreOptions store;
  store.directory = dir_;
  options.aggregator.store = store;
  ScalableMonitor monitor(fs, options, clock);

  // 8192 creates spread over 16 directories (so over all four MDTs),
  // each path well past the 15-character small-string limit.
  constexpr int kEvents = 8192;
  constexpr int kDirs = 16;
  for (int d = 0; d < kDirs; ++d)
    ASSERT_TRUE(fs.mkdir("/replay-budget-directory-" + std::to_string(d)).is_ok());
  for (int i = 0; i < kEvents; ++i) {
    clock.advance(std::chrono::microseconds(10));
    ASSERT_TRUE(fs.create("/replay-budget-directory-" + std::to_string(i % kDirs) +
                          "/file-with-a-long-name-" + std::to_string(i))
                    .is_ok());
    if (i % 512 == 511) monitor.drain_collectors_once();
  }
  while (monitor.drain_collectors_once() > 0) {
  }
  ShardedAggregator& sharded = monitor.sharded();
  const std::uint64_t stored = sharded.last_event_id_sum();
  ASSERT_EQ(stored, static_cast<std::uint64_t>(kEvents + kDirs));
  for (std::size_t k = 0; k < sharded.shard_count(); ++k)
    EXPECT_GT(sharded.shard(k).last_event_id(), 0u) << "shard " << k << " holds nothing";

  std::uint64_t delivered = 0;
  auto consumer = monitor.make_consumer(
      "replay", ConsumerOptions{},
      Consumer::BatchCallback([&delivered](const core::EventBatch& batch) {
        delivered += batch.size();
      }));

  const std::uint64_t before = g_allocations.load();
  auto replayed = consumer->replay_historic(0);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(replayed.value(), stored);
  EXPECT_EQ(delivered, stored);
  const double per_event = static_cast<double>(allocations) / static_cast<double>(stored);
  RecordProperty("allocations_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, 1.1) << allocations << " allocations for " << stored << " events";
}

}  // namespace
}  // namespace fsmon::scalable
