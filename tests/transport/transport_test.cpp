// The Transport contract, checked identically over all three
// implementations (in-process, shared-memory ring, TCP): exact byte
// delivery, prefix filters, the refusal protocol the collector rewind
// depends on, wrong-kind connect rejection, the transport.before_send
// chaos lever, per-transport metrics, and zero-copy hops.
#include "src/transport/transport.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/chaos/fault.hpp"
#include "src/msgq/pubsub.hpp"
#include "src/obs/metrics.hpp"
#include "src/transport/inproc.hpp"
#include "src/transport/shm.hpp"
#include "src/transport/tcp.hpp"

namespace fsmon::transport {
namespace {

constexpr auto kRecvTimeout = std::chrono::milliseconds(5000);

class TransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  std::unique_ptr<Transport> make_transport(TransportKind kind) {
    switch (kind) {
      case TransportKind::kInProc:
        return std::make_unique<InProcTransport>(bus_);
      case TransportKind::kShm:
        return std::make_unique<ShmTransport>();
      case TransportKind::kTcp:
        return std::make_unique<TcpTransport>();
    }
    return nullptr;
  }

  std::unique_ptr<Transport> make_transport() { return make_transport(GetParam()); }

  void TearDown() override { chaos::FaultInjector::instance().disarm(); }

  msgq::Bus bus_;
};

TEST_P(TransportTest, RoundtripDeliversExactBytes) {
  auto transport = make_transport();
  EXPECT_EQ(transport->kind(), GetParam());
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);
  EXPECT_EQ(sender->receiver_count(), 1u);

  const std::string payload("encoded-batch\x00with-binary\xff-bytes", 32);
  const auto result = sender->send("events/shard0", FrameRef::adopt(std::string(payload)));
  EXPECT_EQ(result.accepted, 1u);
  EXPECT_EQ(result.receivers, 1u);
  EXPECT_FALSE(result.refused());
  EXPECT_EQ(sender->sent(), 1u);

  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "events/shard0");
  EXPECT_EQ(frame->payload.chars(), payload);
}

TEST_P(TransportTest, PerSenderOrderIsPreserved) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);
  for (int i = 0; i < 50; ++i) {
    const auto result =
        sender->send("t", FrameRef::adopt("frame" + std::to_string(i)));
    ASSERT_EQ(result.accepted, 1u) << "frame " << i;
  }
  for (int i = 0; i < 50; ++i) {
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload.chars(), "frame" + std::to_string(i));
  }
}

TEST_P(TransportTest, TopicPrefixFilterApplies) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  receiver->subscribe("alpha");
  sender->connect(receiver);

  sender->send("beta/filtered-out", FrameRef::adopt(std::string("nope")));
  sender->send("alpha/kept", FrameRef::adopt(std::string("yes")));

  // The first frame through the filter must be the alpha one: the beta
  // frame was never enqueued (never even crossed the wire on TCP, where
  // filters run publisher-side).
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->topic, "alpha/kept");
  EXPECT_EQ(frame->payload.chars(), "yes");
  EXPECT_FALSE(receiver->try_recv().has_value());
}

TEST_P(TransportTest, NoFiltersReceiveNothing) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  sender->connect(receiver);  // connected but not subscribed

  sender->send("t", FrameRef::adopt(std::string("invisible")));
  receiver->subscribe("");
  // A post-connect subscribe registers asynchronously on TCP (production
  // stages subscribe before connect, which waits). Keep sending sentinels
  // until one lands; whatever arrives first must be a sentinel — the
  // pre-subscription frame stays invisible on every carrier.
  std::optional<Frame> frame;
  for (int i = 0; i < 200 && !frame.has_value(); ++i) {
    sender->send("t", FrameRef::adopt(std::string("sentinel")));
    frame = receiver->recv(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.chars(), "sentinel");
}

TEST_P(TransportTest, ConnectingForeignReceiverThrows) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  // A receiver made by a *different* transport kind must be rejected at
  // connect time, not fail silently at send time.
  const auto other_kind = GetParam() == TransportKind::kInProc ? TransportKind::kShm
                                                              : TransportKind::kInProc;
  auto other = make_transport(other_kind);
  auto foreign = other->make_receiver("foreign", 16, OverflowPolicy::kBlock);
  EXPECT_THROW(sender->connect(foreign), std::invalid_argument);
  EXPECT_EQ(sender->receiver_count(), 0u);
}

TEST_P(TransportTest, BeforeSendFaultSurfacesAsRefusal) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);

  chaos::FaultPlan plan;
  chaos::FaultRule rule;
  rule.point = "transport.before_send";
  rule.action = chaos::FaultAction::kDrop;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  chaos::FaultInjector::instance().arm(std::move(plan));

  // The faulted send is a refusal — the producer's signal to rewind.
  const auto refused = sender->send("t", FrameRef::adopt(std::string("dropped")));
  EXPECT_EQ(refused.accepted, 0u);
  EXPECT_TRUE(refused.refused());

  // One fire only: the retry goes through, and the receiver never saw
  // the refused frame.
  const auto retried = sender->send("t", FrameRef::adopt(std::string("retried")));
  EXPECT_EQ(retried.accepted, 1u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.chars(), "retried");
}

TEST_P(TransportTest, ClosedReceiverRefusesAndReopenDiscardsBacklog) {
  // Regression test for the TCP reconnect suffix-loss race: a receiver
  // that was connected and is now gone must surface as a *refusal*
  // (receivers > 0, accepted == 0 — the producer's rewind signal), never
  // as receivers == 0 ("nobody ever listened, fine to drop"). In-proc
  // and shm always behaved this way because the inbox object survives a
  // close; TCP used to report the empty connection table as an empty
  // audience, silently losing every frame a collector replayed into a
  // crashed shard's teardown/re-dial window.
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);

  ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string("pre-close"))).accepted, 1u);
  receiver->close();
  EXPECT_TRUE(receiver->closed());
  // The carriers learn of the dead peer at different speeds: in-proc and
  // shm refuse on the first send; TCP may buffer a few writes into the
  // half-closed socket before the failure surfaces. Bounded retries,
  // then the result must be a refusal.
  SendResult result;
  for (int i = 0; i < 500; ++i) {
    result = sender->send("t", FrameRef::adopt(std::string("refused")));
    if (result.refused()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_GE(result.receivers, 1u);
  EXPECT_TRUE(result.refused());

  // Reopen drops the pre-crash backlog (restart semantics): the first
  // frame a restarted stage sees is one sent after the reopen. On TCP
  // the re-dialed subscription registers asynchronously, so retry until
  // a send is accepted.
  receiver->reopen();
  EXPECT_FALSE(receiver->closed());
  SendResult reopened;
  for (int i = 0; i < 500; ++i) {
    reopened = sender->send("t", FrameRef::adopt(std::string("post-reopen")));
    if (reopened.accepted > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(reopened.accepted, 0u);
  auto frame = receiver->recv(kRecvTimeout);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.chars(), "post-reopen");
  // Nothing from before the close may leak through; only (possibly
  // repeated) post-reopen sends are visible.
  while (auto extra = receiver->try_recv()) {
    EXPECT_EQ(extra->payload.chars(), "post-reopen");
  }
}

TEST_P(TransportTest, DropNewestReceiverCountsDropsPastHighWaterMark) {
  // The high-water mark is per receiver on every carrier: a kDropNewest
  // receiver keeps the oldest frames and counts the rest as dropped (the
  // consumer's overflow_dropped gauge reads dropped()).
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 4, OverflowPolicy::kDropNewest);
  receiver->subscribe("");
  sender->connect(receiver);

  constexpr std::size_t kSent = 10;
  for (std::size_t i = 0; i < kSent; ++i) {
    sender->send("t", FrameRef::adopt("frame" + std::to_string(i)));
  }
  // TCP fills the inbox from a reader thread: wait until every frame is
  // accounted for as queued or dropped.
  const auto deadline = std::chrono::steady_clock::now() + kRecvTimeout;
  while (receiver->pending() + receiver->dropped() < kSent &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(receiver->pending(), 4u);
  EXPECT_EQ(receiver->dropped(), kSent - 4);
  for (int i = 0; i < 4; ++i) {
    auto frame = receiver->try_recv();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload.chars(), "frame" + std::to_string(i));
  }
  EXPECT_FALSE(receiver->try_recv().has_value());
}

TEST_P(TransportTest, MetricsCountAcceptedFramesAndBytes) {
  obs::MetricsRegistry registry;
  auto transport = make_transport();
  transport->attach_metrics(&registry);
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);

  std::uint64_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const std::string payload(10 + i, 'x');
    bytes += payload.size();
    ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string(payload))).accepted, 1u);
  }

  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_total("transport.frames"), 3u);
  EXPECT_EQ(snapshot.counter_total("transport.bytes"), bytes);
  EXPECT_TRUE(snapshot.contains("transport.ring_full_waits"));
  EXPECT_TRUE(snapshot.contains("frame.copies"));
  // The label identifies which transport moved the frames.
  bool labelled = false;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == "transport.frames") {
      const auto it = sample.labels.find("transport");
      labelled = it != sample.labels.end() && it->second == to_string(GetParam());
    }
  }
  EXPECT_TRUE(labelled) << "transport.frames missing transport=<kind> label";
}

TEST_P(TransportTest, HopIsZeroCopy) {
  auto transport = make_transport();
  auto sender = transport->make_sender("s");
  auto receiver = transport->make_receiver("r", 1024, OverflowPolicy::kBlock);
  receiver->subscribe("");
  sender->connect(receiver);

  const std::uint64_t before = frame_copies();
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(sender->send("t", FrameRef::adopt(std::string(512, 'z'))).accepted, 1u);
    auto frame = receiver->recv(kRecvTimeout);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->payload.size(), 512u);
  }
  // In-proc: shared_ptr bump. Shm: one write into the ring, read in
  // place. TCP: scatter-gather send + wire transfer (not a frame copy).
  EXPECT_EQ(frame_copies(), before);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TransportTest,
                         ::testing::Values(TransportKind::kInProc, TransportKind::kShm,
                                           TransportKind::kTcp),
                         [](const ::testing::TestParamInfo<TransportKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace fsmon::transport
