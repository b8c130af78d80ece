// TCP-specific behaviour of TcpTransport that the carrier-generic
// TransportTest does not cover: long ordered streams, payloads larger
// than the socket buffers, fan-out to several receivers, a receiver
// that vanishes, and dials that cannot succeed. Skipped when the
// sandbox forbids socket creation.
#include "src/transport/tcp.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace fsmon::transport {
namespace {

constexpr auto kRecvTimeout = std::chrono::milliseconds(5000);

class TcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!TcpTransport::available()) GTEST_SKIP() << "sockets unavailable in this sandbox";
    sender = transport.make_sender("s");
  }

  std::shared_ptr<Receiver> connected_receiver(std::string name) {
    auto receiver = transport.make_receiver(std::move(name), 1 << 16, OverflowPolicy::kBlock);
    receiver->subscribe("");
    sender->connect(receiver);
    return receiver;
  }

  TcpTransport transport;
  std::shared_ptr<Sender> sender;
};

TEST_F(TcpTest, ManyFramesInOrder) {
  auto receiver = connected_receiver("r");
  constexpr int kCount = 2000;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(sender->send("seq", FrameRef::adopt(std::to_string(i))).accepted, 1u);
  }
  for (int i = 0; i < kCount; ++i) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload.chars(), std::to_string(i));
  }
}

TEST_F(TcpTest, LargePayloadRoundTrip) {
  auto receiver = connected_receiver("r");
  std::string payload(512 * 1024, 'x');
  payload[12345] = 'y';
  ASSERT_EQ(sender->send("big", FrameRef::adopt(std::string(payload))).accepted, 1u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "big");
  EXPECT_EQ(frame->payload.chars(), payload);
}

TEST_F(TcpTest, MultipleSubscribersFanOut) {
  auto a = connected_receiver("a");
  auto b = connected_receiver("b");
  EXPECT_EQ(sender->receiver_count(), 2u);
  const auto result = sender->send("t", FrameRef::adopt(std::string("both")));
  EXPECT_EQ(result.accepted, 2u);
  for (const auto& receiver : {a, b}) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value()) << receiver->name();
    EXPECT_EQ(frame->payload.chars(), "both");
  }
}

TEST_F(TcpTest, SubscriberDisconnectDetected) {
  // A receiver destroyed outright (a crashed remote process) must read
  // as a refusing audience, never as "nobody listening".
  auto receiver = connected_receiver("r");
  ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string("x"))).accepted, 1u);
  receiver.reset();
  SendResult result;
  for (int i = 0; i < 500; ++i) {
    result = sender->send("t", FrameRef::adopt(std::string("x")));
    if (result.accepted == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(result.refused());
  EXPECT_EQ(sender->receiver_count(), 1u);
}

TEST_F(TcpTest, ConnectToDeadPortFails) {
  // The sender listens on 127.0.0.1 only, so a receiver dialing another
  // loopback address finds nothing there.
  TcpTransport elsewhere(TcpTransportOptions{"127.0.0.2"});
  auto dead = elsewhere.make_sender("dead");
  auto receiver = elsewhere.make_receiver("r", 16, OverflowPolicy::kBlock);
  EXPECT_THROW(dead->connect(receiver), std::runtime_error);
  EXPECT_EQ(dead->receiver_count(), 0u);
}

TEST_F(TcpTest, BadAddressRejected) {
  TcpTransport bad(TcpTransportOptions{"not-an-ip"});
  auto bad_sender = bad.make_sender("s");
  auto receiver = bad.make_receiver("r", 16, OverflowPolicy::kBlock);
  EXPECT_THROW(bad_sender->connect(receiver), std::runtime_error);
}

}  // namespace
}  // namespace fsmon::transport
