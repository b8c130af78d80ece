// A burst through the fan-out hub reaches a consumer whole: nothing is
// dropped on the way (paper Section IV "Consumption"). A consumer that
// falls behind is demoted to store replay instead (FlowControlTest).
#include <gtest/gtest.h>

#include "src/scalable/scalable_monitor.hpp"

namespace fsmon::scalable {
namespace {

using lustre::LustreFs;
using lustre::LustreFsOptions;

class ConsumerOverflowTest : public ::testing::Test {
 protected:
  common::RealClock clock;
};

TEST_F(ConsumerOverflowTest, BlockPolicyIsLosslessUnderBurst) {
  LustreFs fs(LustreFsOptions{}, clock);
  ScalableMonitor monitor(fs, ScalableMonitorOptions{}, clock);
  std::atomic<int> count{0};
  auto consumer = monitor.make_consumer("c", ConsumerOptions{},
                                        [&](const core::StdEvent&) {
                                          count.fetch_add(1);
                                        });
  ASSERT_TRUE(monitor.start().is_ok());
  ASSERT_TRUE(consumer->start().is_ok());
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) fs.create("/g" + std::to_string(i));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < kEvents && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  consumer->stop();
  monitor.stop();
  EXPECT_EQ(count.load(), kEvents);
}

}  // namespace
}  // namespace fsmon::scalable
