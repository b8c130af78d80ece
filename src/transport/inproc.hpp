// InProcTransport: the msgq::Bus pub/sub rebased onto the Transport
// interface.
//
// The carrier is unchanged — msgq::Publisher fan-out into each
// msgq::Subscriber's bounded inbox — but the payload now rides in
// msgq::Message::frame, so the per-subscriber Message copy that used to
// duplicate the encoded batch is a FrameRef shared_ptr bump.
//
// Declared under src/transport/ but compiled into fsmon_msgq:
// fsmon_transport cannot depend on msgq (msgq::Message embeds FrameRef),
// so the adapter sources live where both sides are visible.
#pragma once

#include <memory>
#include <string>

#include "src/msgq/pubsub.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::transport {

class InProcReceiver : public Receiver {
 public:
  explicit InProcReceiver(std::shared_ptr<msgq::Subscriber> subscriber)
      : subscriber_(std::move(subscriber)) {}

  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  std::optional<Frame> try_recv() override;
  void subscribe(std::string_view prefix) override { subscriber_->subscribe(std::string(prefix)); }
  void close() override { subscriber_->close(); }
  void reopen() override { subscriber_->reopen(); }
  bool closed() const override { return subscriber_->closed(); }
  std::size_t pending() const override { return subscriber_->pending(); }
  std::uint64_t dropped() const override { return subscriber_->dropped(); }
  const std::string& name() const override { return subscriber_->name(); }

 private:
  friend class InProcSender;

  static std::optional<Frame> to_frame(std::optional<msgq::Message> message);

  std::shared_ptr<msgq::Subscriber> subscriber_;
};

class InProcSender : public Sender {
 public:
  explicit InProcSender(std::shared_ptr<msgq::Publisher> publisher)
      : publisher_(std::move(publisher)) {}

  SendResult send(std::string_view topic, FrameRef frame) override;
  void connect(const std::shared_ptr<Receiver>& receiver) override;
  void disconnect(const std::shared_ptr<Receiver>& receiver) override;
  std::size_t receiver_count() const override { return publisher_->subscriber_count(); }
  std::uint64_t sent() const override { return publisher_->published(); }
  const std::string& name() const override { return publisher_->name(); }

  void set_metrics(TransportMetrics metrics) { metrics_ = metrics; }

 private:
  std::shared_ptr<msgq::Publisher> publisher_;
  TransportMetrics metrics_;
};

class InProcTransport : public Transport {
 public:
  explicit InProcTransport(msgq::Bus& bus) : bus_(bus) {}

  TransportKind kind() const override { return TransportKind::kInProc; }
  std::shared_ptr<Sender> make_sender(std::string name) override;
  std::shared_ptr<Receiver> make_receiver(std::string name, std::size_t high_water_mark,
                                          OverflowPolicy policy) override;
  void attach_metrics(obs::MetricsRegistry* registry) override;

  msgq::Bus& bus() { return bus_; }

 private:
  msgq::Bus& bus_;
  std::mutex mu_;
  std::vector<std::shared_ptr<InProcSender>> senders_;
  TransportMetrics metrics_;
  bool metrics_attached_ = false;
};

}  // namespace fsmon::transport
