#include "src/transport/shm.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "src/chaos/fault.hpp"

namespace fsmon::transport {

// ---------------------------------------------------------------------------
// ShmSender

ShmSender::ShmSender(std::string name, ShmTransportOptions options)
    : name_(std::move(name)), options_(options) {}

void ShmSender::connect(const std::shared_ptr<Receiver>& receiver) {
  auto shm = std::dynamic_pointer_cast<ShmReceiver>(receiver);
  if (shm == nullptr) {
    throw std::invalid_argument("ShmSender::connect: receiver is not a shm receiver");
  }
  auto ring = std::make_shared<ShmRing>(options_.ring_bytes);
  auto overflow = std::make_shared<common::BoundedQueue<Frame>>(
      options_.overflow_capacity, common::OverflowPolicy::kBlock);
  shm->add_source(ShmReceiver::Source{ring, overflow});
  std::lock_guard lock(mu_);
  edges_.push_back(Edge{std::move(shm), std::move(ring), std::move(overflow)});
}

void ShmSender::disconnect(const std::shared_ptr<Receiver>& receiver) {
  std::lock_guard lock(mu_);
  std::erase_if(edges_, [&](const Edge& edge) {
    if (edge.receiver != receiver) return false;
    edge.receiver->remove_source(edge.ring);
    return true;
  });
}

std::size_t ShmSender::receiver_count() const {
  std::lock_guard lock(mu_);
  return edges_.size();
}

SendResult ShmSender::send(std::string_view topic, FrameRef frame) {
  std::lock_guard lock(mu_);
  ++sent_;
  SendResult result;
  if (detail::send_faulted()) {
    for (const auto& edge : edges_) {
      if (edge.receiver->accepts(topic)) ++result.receivers;
    }
    // Surface as a refusal even with no one listening so chaos schedules
    // deterministically trigger the producer's rewind path.
    result.receivers = std::max<std::uint64_t>(result.receivers, 1);
    return result;
  }
  for (const auto& edge : edges_) {
    if (!edge.receiver->accepts(topic)) continue;
    ++result.receivers;
    if (edge.receiver->drop_over_limit()) continue;
    bool delivered = false;
    while (!edge.receiver->closed()) {
      const auto pushed = edge.ring->try_push(topic, frame.bytes());
      if (pushed == ShmRing::PushResult::kOk) {
        delivered = true;
        break;
      }
      if (pushed == ShmRing::PushResult::kTooLarge) {
        // Route around the ring: the overflow queue moves the FrameRef
        // itself (a shared_ptr bump, still no byte copy).
        delivered = edge.overflow->push(Frame{std::string(topic), frame});
        break;
      }
      // Ring full: block until the receiver releases records, unless the
      // chaos point turns the wait into a refusal.
      metrics_.on_ring_full_wait();
      const auto outcome = chaos::fault("transport.shm.full");
      if (outcome && outcome.action != chaos::FaultAction::kDelay) break;
      if (outcome.action == chaos::FaultAction::kDelay) {
        std::this_thread::sleep_for(outcome.delay);
      }
      edge.ring->wait_for_space(std::chrono::milliseconds(1));
    }
    if (delivered) {
      ++result.accepted;
      edge.receiver->notify();
    }
  }
  metrics_.on_send(result.accepted, result.accepted * frame.size());
  return result;
}

// ---------------------------------------------------------------------------
// ShmReceiver

ShmReceiver::ShmReceiver(std::string name, std::size_t high_water_mark,
                         OverflowPolicy policy)
    : name_(std::move(name)), high_water_mark_(high_water_mark), policy_(policy) {}

void ShmReceiver::add_source(Source source) {
  std::lock_guard lock(mu_);
  if (closed_) source.overflow->close();
  sources_.push_back(std::move(source));
}

void ShmReceiver::remove_source(const std::shared_ptr<ShmRing>& ring) {
  std::lock_guard lock(mu_);
  std::erase_if(sources_, [&](const Source& s) { return s.ring == ring; });
}

void ShmReceiver::notify() {
  {
    std::lock_guard lock(mu_);
  }
  cv_.notify_all();
}

bool ShmReceiver::accepts(std::string_view topic) const {
  std::lock_guard lock(mu_);
  return std::any_of(filters_.begin(), filters_.end(),
                     [&](const std::string& prefix) { return topic.starts_with(prefix); });
}

void ShmReceiver::subscribe(std::string_view prefix) {
  std::lock_guard lock(mu_);
  filters_.emplace_back(prefix);
}

std::optional<Frame> ShmReceiver::poll_sources() {
  for (auto& source : sources_) {
    if (auto popped = source.ring->try_pop()) {
      return Frame{std::move(popped->topic), std::move(popped->payload)};
    }
    if (auto frame = source.overflow->try_pop()) return frame;
  }
  return std::nullopt;
}

std::optional<Frame> ShmReceiver::try_recv() {
  std::lock_guard lock(mu_);
  return poll_sources();
}

std::optional<Frame> ShmReceiver::recv(std::chrono::milliseconds timeout) {
  const bool bounded = timeout.count() >= 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(mu_);
  while (true) {
    if (auto frame = poll_sources()) return frame;
    if (closed_) return std::nullopt;  // drained, end of stream
    if (bounded) {
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      cv_.wait_until(lock, deadline);
    } else {
      cv_.wait(lock);
    }
  }
}

void ShmReceiver::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    // Wake senders blocked on a full overflow queue; they observe the
    // close as a refusal.
    for (auto& source : sources_) source.overflow->close();
  }
  cv_.notify_all();
}

void ShmReceiver::reopen() {
  std::lock_guard lock(mu_);
  closed_ = false;
  // A restarted stage must not see frames its pre-crash incarnation never
  // drained (BoundedQueue::reopen semantics): discard the backlog.
  for (auto& source : sources_) {
    source.overflow->reopen();
    while (source.ring->try_pop()) {
    }
  }
}

bool ShmReceiver::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

std::size_t ShmReceiver::pending_locked() const {
  std::size_t total = 0;
  for (const auto& source : sources_) {
    total += source.ring->pending() + source.overflow->size();
  }
  return total;
}

std::size_t ShmReceiver::pending() const {
  std::lock_guard lock(mu_);
  return pending_locked();
}

bool ShmReceiver::drop_over_limit() {
  if (policy_ != OverflowPolicy::kDropNewest) return false;
  std::lock_guard lock(mu_);
  if (pending_locked() < high_water_mark_) return false;
  ++dropped_;
  return true;
}

std::uint64_t ShmReceiver::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

// ---------------------------------------------------------------------------
// ShmTransport

ShmTransport::ShmTransport(ShmTransportOptions options) : options_(options) {}

std::shared_ptr<Sender> ShmTransport::make_sender(std::string name) {
  auto sender = std::make_shared<ShmSender>(std::move(name), options_);
  std::lock_guard lock(mu_);
  if (metrics_attached_) sender->set_metrics(metrics_);
  senders_.push_back(sender);
  return sender;
}

std::shared_ptr<Receiver> ShmTransport::make_receiver(std::string name,
                                                      std::size_t high_water_mark,
                                                      OverflowPolicy policy) {
  return std::make_shared<ShmReceiver>(std::move(name), high_water_mark, policy);
}

void ShmTransport::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  std::lock_guard lock(mu_);
  metrics_ = TransportMetrics::create(*registry, TransportKind::kShm);
  metrics_attached_ = true;
  for (auto& sender : senders_) sender->set_metrics(metrics_);
}

}  // namespace fsmon::transport
