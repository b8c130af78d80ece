#include "src/transport/inproc.hpp"

#include <stdexcept>

namespace fsmon::transport {

std::optional<Frame> InProcReceiver::to_frame(std::optional<msgq::Message> message) {
  if (!message) return std::nullopt;
  Frame frame;
  frame.topic = std::move(message->topic);
  // Messages published through the transport carry a FrameRef already;
  // legacy publishers that still fill `payload` get it adopted (a move,
  // not a copy).
  frame.payload = message->frame ? std::move(message->frame)
                                 : FrameRef::adopt(std::move(message->payload));
  return frame;
}

std::optional<Frame> InProcReceiver::recv(std::chrono::milliseconds timeout) {
  if (timeout.count() < 0) return to_frame(subscriber_->recv());
  return to_frame(subscriber_->recv_for(timeout));
}

std::optional<Frame> InProcReceiver::try_recv() {
  return to_frame(subscriber_->try_recv());
}

SendResult InProcSender::send(std::string_view topic, FrameRef frame) {
  SendResult result;
  if (detail::send_faulted()) {
    result.receivers = std::max<std::uint64_t>(publisher_->subscriber_count(), 1);
    return result;
  }
  msgq::Message message;
  message.topic = topic;
  message.frame = std::move(frame);
  const std::size_t bytes = message.frame.size();
  result.receivers = publisher_->subscriber_count();
  // Move-aware publish: with single-subscriber fan-in the frame refcount
  // stays at one end to end, so the receiver can mutate in place.
  result.accepted = publisher_->publish(std::move(message));
  metrics_.on_send(result.accepted, result.accepted * bytes);
  return result;
}

void InProcSender::connect(const std::shared_ptr<Receiver>& receiver) {
  auto inproc = std::dynamic_pointer_cast<InProcReceiver>(receiver);
  if (inproc == nullptr) {
    throw std::invalid_argument(
        "InProcSender::connect: receiver is not an in-process receiver");
  }
  publisher_->connect(inproc->subscriber_);
}

void InProcSender::disconnect(const std::shared_ptr<Receiver>& receiver) {
  auto inproc = std::dynamic_pointer_cast<InProcReceiver>(receiver);
  if (inproc == nullptr) return;
  publisher_->disconnect(inproc->subscriber_->name());
}

std::shared_ptr<Sender> InProcTransport::make_sender(std::string name) {
  auto sender = std::make_shared<InProcSender>(bus_.make_publisher(name));
  std::lock_guard lock(mu_);
  if (metrics_attached_) sender->set_metrics(metrics_);
  senders_.push_back(sender);
  return sender;
}

std::shared_ptr<Receiver> InProcTransport::make_receiver(std::string name,
                                                         std::size_t high_water_mark,
                                                         OverflowPolicy policy) {
  const auto msgq_policy = policy == OverflowPolicy::kDropNewest
                               ? common::OverflowPolicy::kDropNewest
                               : common::OverflowPolicy::kBlock;
  return std::make_shared<InProcReceiver>(
      bus_.make_subscriber(name, high_water_mark, msgq_policy));
}

void InProcTransport::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  std::lock_guard lock(mu_);
  metrics_ = TransportMetrics::create(*registry, TransportKind::kInProc);
  metrics_attached_ = true;
  for (auto& sender : senders_) sender->set_metrics(metrics_);
}

}  // namespace fsmon::transport
