// ShmTransport: shared-memory ring transport for co-located stages.
//
// Each (sender, receiver) edge gets its own ShmRing: send() writes the
// frame bytes once into each subscribed receiver's ring, and the
// receiver hands them out as borrowing FrameRefs — the consumer reads
// the batch in place and the record is reclaimed when the last retainer
// (fan-out, persist queue) drops its ref. No heap copy happens on the
// hop, which the frame.copies counter asserts structurally.
//
// The rings here live in process memory. A true cross-process deployment
// would back the same layout with a mmap'd segment; nothing in the ring
// format (offsets, no pointers, atomic state words) prevents that — the
// constructor is the only place that would change.
//
// A kDropNewest receiver at its high-water mark (frames queued across
// its rings) drops the new frame and counts it, as on the in-process
// carrier. Otherwise backpressure applies: a full ring blocks the sender
// (counted as transport.ring_full_waits, consulted against the
// `transport.shm.full` chaos point) until the receiver releases records
// — unless the receiver is closed, which surfaces as a refusal exactly
// like a closed msgq subscriber, so the collector rewind protocol
// carries over unchanged.
// Frames larger than the ring can ever hold travel via a small overflow
// queue of FrameRefs (a shared_ptr bump, still no copy).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/transport/shm_ring.hpp"
#include "src/transport/transport.hpp"

namespace fsmon::transport {

class ShmReceiver;

struct ShmTransportOptions {
  /// Per-edge ring capacity in bytes (rounded up to a power of two).
  std::size_t ring_bytes = 1 << 20;
  /// Capacity of the per-edge overflow queue for frames too large for
  /// the ring (frames this size are rare; the queue is a safety valve).
  std::size_t overflow_capacity = 64;
};

class ShmSender : public Sender {
 public:
  ShmSender(std::string name, ShmTransportOptions options);

  SendResult send(std::string_view topic, FrameRef frame) override;
  void connect(const std::shared_ptr<Receiver>& receiver) override;
  void disconnect(const std::shared_ptr<Receiver>& receiver) override;
  std::size_t receiver_count() const override;
  std::uint64_t sent() const override { return sent_; }
  const std::string& name() const override { return name_; }

  void set_metrics(TransportMetrics metrics) { metrics_ = metrics; }

 private:
  struct Edge {
    std::shared_ptr<ShmReceiver> receiver;
    std::shared_ptr<ShmRing> ring;
    std::shared_ptr<common::BoundedQueue<Frame>> overflow;
  };

  const std::string name_;
  const ShmTransportOptions options_;
  mutable std::mutex mu_;  ///< serializes send() (the ring's single producer)
  std::vector<Edge> edges_;
  std::uint64_t sent_ = 0;
  TransportMetrics metrics_;
};

class ShmReceiver : public Receiver,
                    public std::enable_shared_from_this<ShmReceiver> {
 public:
  ShmReceiver(std::string name, std::size_t high_water_mark, OverflowPolicy policy);

  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  std::optional<Frame> try_recv() override;
  void subscribe(std::string_view prefix) override;
  void close() override;
  void reopen() override;
  bool closed() const override;
  std::size_t pending() const override;
  std::uint64_t dropped() const override;
  const std::string& name() const override { return name_; }

  bool accepts(std::string_view topic) const;
  /// kDropNewest at or past the high-water mark: count the frame as
  /// dropped and return true, so the sender skips this receiver.
  bool drop_over_limit();

 private:
  friend class ShmSender;

  struct Source {
    std::shared_ptr<ShmRing> ring;
    /// Frames too large for the ring (delivered by shared_ptr bump).
    std::shared_ptr<common::BoundedQueue<Frame>> overflow;
  };

  void add_source(Source source);
  void remove_source(const std::shared_ptr<ShmRing>& ring);
  /// Sender-side wakeup after a push.
  void notify();
  std::optional<Frame> poll_sources();
  std::size_t pending_locked() const;

  const std::string name_;
  const std::size_t high_water_mark_;
  const OverflowPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Source> sources_;
  std::vector<std::string> filters_;
  bool closed_ = false;
  std::uint64_t dropped_ = 0;
};

class ShmTransport : public Transport {
 public:
  explicit ShmTransport(ShmTransportOptions options = {});

  TransportKind kind() const override { return TransportKind::kShm; }
  std::shared_ptr<Sender> make_sender(std::string name) override;
  std::shared_ptr<Receiver> make_receiver(std::string name, std::size_t high_water_mark,
                                          OverflowPolicy policy) override;
  void attach_metrics(obs::MetricsRegistry* registry) override;

 private:
  const ShmTransportOptions options_;
  std::mutex mu_;
  std::vector<std::shared_ptr<ShmSender>> senders_;
  TransportMetrics metrics_;
  bool metrics_attached_ = false;
};

}  // namespace fsmon::transport
