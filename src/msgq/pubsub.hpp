// In-process publisher/subscriber message queue (ZeroMQ substitute).
//
// Topology matches the paper's scalable monitor: N publishers
// (collectors) fan in to one subscriber (the aggregator), and one
// publisher (the aggregator) fans out to M subscribers (consumers) with
// per-subscriber topic filters. Subscribers own bounded queues with a
// high-water mark; the overflow policy is per-subscriber (ZeroMQ's
// default PUB/SUB behaviour drops at HWM, pipelines that must be
// lossless use Block).
//
// Endpoints rendezvous through a Bus by name, standing in for ZeroMQ's
// tcp:// endpoints; transport::TcpTransport (src/transport/tcp.hpp)
// carries the pipeline's frames when components run in separate
// processes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/msgq/message.hpp"

namespace fsmon::msgq {

class Subscriber;

/// Publishing endpoint. Thread-safe; publishers may be shared.
class Publisher {
 public:
  explicit Publisher(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Deliver to every connected subscriber whose filter matches. Returns
  /// the number of subscribers that accepted the message (a subscriber at
  /// HWM with DropNewest policy rejects it; Block waits).
  std::size_t publish(const Message& message);
  /// Move-aware publish: the last matching subscriber receives the
  /// message itself; only earlier ones get copies. With single-subscriber
  /// fan-in (the pipeline's hot topology) a frame-bearing message is
  /// never duplicated and its FrameRef count never exceeds one, so the
  /// receiving stage can patch the bytes in place.
  std::size_t publish(Message&& message);
  std::size_t publish(std::string topic, std::string payload) {
    Message message;
    message.topic = std::move(topic);
    message.payload = std::move(payload);
    return publish(std::move(message));
  }

  void connect(const std::shared_ptr<Subscriber>& subscriber);
  void disconnect(const std::string& subscriber_name);

  std::size_t subscriber_count() const;
  std::uint64_t published() const;

 private:
  /// Snapshot live subscribers (pruning dead weak_ptrs) and count the
  /// publish, under the lock.
  std::vector<std::shared_ptr<Subscriber>> snapshot_targets();

  std::string name_;
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<Subscriber>> subscribers_;
  std::uint64_t published_ = 0;
};

/// Subscribing endpoint: a bounded inbox plus a set of topic filters.
class Subscriber : public std::enable_shared_from_this<Subscriber> {
 public:
  Subscriber(std::string name, std::size_t high_water_mark,
             common::OverflowPolicy policy = common::OverflowPolicy::kBlock)
      : name_(std::move(name)), inbox_(high_water_mark, policy) {}

  const std::string& name() const { return name_; }

  /// Add a prefix filter (ZMQ_SUBSCRIBE). With no filters nothing is
  /// received; subscribe("") receives everything.
  void subscribe(std::string prefix);
  void unsubscribe(const std::string& prefix);
  bool accepts(std::string_view topic) const;

  /// Blocking receive; nullopt only after close() with a drained inbox.
  std::optional<Message> recv() { return inbox_.pop(); }
  /// Blocking receive bounded by `timeout` (nullopt on expiry).
  std::optional<Message> recv_for(std::chrono::milliseconds timeout) {
    return inbox_.pop_for(timeout);
  }
  std::optional<Message> try_recv() { return inbox_.try_pop(); }
  std::vector<Message> recv_batch(std::size_t max_items) { return inbox_.pop_batch(max_items); }

  void close() { inbox_.close(); }
  /// Reopen after close(), dropping any undrained backlog. Keeps the
  /// publishers' weak_ptr connections intact, so a crashed-and-restarted
  /// stage resumes receiving without rewiring the bus.
  void reopen() { inbox_.reopen(); }
  bool closed() const { return inbox_.closed(); }

  std::size_t pending() const { return inbox_.size(); }
  std::uint64_t dropped() const { return inbox_.dropped(); }
  std::uint64_t received() const { return inbox_.pushed(); }

 private:
  friend class Publisher;
  bool deliver(const Message& message) { return inbox_.push(message); }
  bool deliver(Message&& message) { return inbox_.push(std::move(message)); }

  std::string name_;
  mutable std::mutex filter_mu_;
  std::vector<std::string> filters_;
  common::BoundedQueue<Message> inbox_;
};

/// Name-based rendezvous so components can wire up without holding
/// references to each other (the MGS registers endpoint names).
class Bus {
 public:
  std::shared_ptr<Publisher> make_publisher(const std::string& name);
  std::shared_ptr<Subscriber> make_subscriber(
      const std::string& name, std::size_t high_water_mark,
      common::OverflowPolicy policy = common::OverflowPolicy::kBlock);

  /// Connect an existing subscriber to an existing publisher by name.
  bool connect(const std::string& publisher_name, const std::string& subscriber_name);

  std::shared_ptr<Publisher> find_publisher(const std::string& name) const;
  std::shared_ptr<Subscriber> find_subscriber(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Publisher>> publishers_;
  std::vector<std::shared_ptr<Subscriber>> subscribers_;
};

}  // namespace fsmon::msgq
