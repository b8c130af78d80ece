// Transport: the stage-boundary abstraction of the pipeline.
//
// Every hop — collector -> router, router -> shard aggregator,
// aggregator -> consumers — moves one topic string plus one
// immutable FrameRef over a Sender/Receiver pair. The stages no longer
// know what carries the frame; three implementations sit behind the
// interface:
//
//   - InProcTransport (src/transport/inproc.hpp, built on msgq::Bus):
//     handoff is a shared_ptr bump into the receiver's bounded inbox.
//   - ShmTransport (src/transport/shm.hpp, built on a variable-length
//     SPSC byte ring): publish writes the frame once into the ring;
//     receivers read it in place via a borrowing FrameRef.
//   - TcpTransport (src/transport/tcp.hpp, loopback or remote sockets):
//     scatter-gather writev of header + payload, no assembly buffer.
//
// Contract (all implementations):
//   - SendResult mirrors the refusal protocol the collector rewind
//     depends on: `accepted == 0 && receivers > 0` means every connected
//     receiver refused the frame and the producer must rewind/retry.
//     `receivers == 0` means nobody is listening (fine to drop).
//   - A frame accepted by send() is delivered to every connected,
//     subscribed, open receiver exactly once, in per-sender order.
//   - Receivers filter by topic prefix (subscribe("") = everything) and
//     mirror msgq::Subscriber lifecycle: close() wakes blocked recv()
//     which drains the backlog then returns nullopt; senders see a
//     closed receiver as refusing; reopen() discards the backlog.
//   - Every send() consults the `transport.before_send` chaos point:
//     kDrop/kFail/kCrash surface as a refusal (accepted=0), kDelay
//     sleeps for real. This gives the chaos suite one lever that works
//     identically over all three transports.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/transport/frame.hpp"

namespace fsmon::obs {
class MetricsRegistry;
}

namespace fsmon::transport {

/// One delivered message: the topic it was sent under plus the frame.
struct Frame {
  std::string topic;
  FrameRef payload;
};

/// Outcome of one send() over one Sender.
struct SendResult {
  std::uint64_t accepted = 0;   ///< receivers that took the frame
  std::uint64_t receivers = 0;  ///< receivers connected at send time

  /// The collector/router refusal condition: everyone listening said no.
  bool refused() const { return accepted == 0 && receivers > 0; }
};

enum class TransportKind : std::uint8_t { kInProc, kShm, kTcp };

std::string_view to_string(TransportKind kind);

class Receiver {
 public:
  virtual ~Receiver() = default;

  /// Block until a frame arrives, the receiver closes (drains then
  /// nullopt), or `timeout` elapses (nullopt). timeout <= 0 waits
  /// indefinitely.
  virtual std::optional<Frame> recv(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(-1)) = 0;

  /// Non-blocking recv.
  virtual std::optional<Frame> try_recv() = 0;

  /// Add a topic prefix filter; no filters = receive nothing,
  /// subscribe("") = receive everything (msgq::Subscriber semantics).
  virtual void subscribe(std::string_view prefix) = 0;

  virtual void close() = 0;
  virtual void reopen() = 0;
  virtual bool closed() const = 0;

  /// Frames waiting to be recv'd / dropped by overflow policy so far.
  virtual std::size_t pending() const = 0;
  virtual std::uint64_t dropped() const = 0;

  virtual const std::string& name() const = 0;
};

class Sender {
 public:
  virtual ~Sender() = default;

  /// Deliver `frame` under `topic` to every connected receiver.
  virtual SendResult send(std::string_view topic, FrameRef frame) = 0;

  /// Attach a receiver made by the same Transport. Connecting a receiver
  /// from a different transport kind throws std::invalid_argument.
  virtual void connect(const std::shared_ptr<Receiver>& receiver) = 0;
  virtual void disconnect(const std::shared_ptr<Receiver>& receiver) = 0;

  virtual std::size_t receiver_count() const = 0;
  virtual std::uint64_t sent() const = 0;

  virtual const std::string& name() const = 0;
};

/// Per-transport instrument bundle, attached via Transport::attach_metrics.
struct TransportMetrics {
  obs::MetricsRegistry* registry = nullptr;

  /// Registers transport.frames / transport.bytes /
  /// transport.ring_full_waits counters and the frame.copies gauge
  /// (labelled transport=<kind>). See docs/OBSERVABILITY.md.
  static TransportMetrics create(obs::MetricsRegistry& registry, TransportKind kind);

  void on_send(std::uint64_t frames, std::uint64_t bytes);
  void on_ring_full_wait();
  /// Publish the process-wide frame_copies() counter as a gauge.
  void refresh_frame_copies();

 private:
  struct Instruments;
  std::shared_ptr<Instruments> instruments_;
};

/// Overflow behaviour for a receiver's inbox (mirrors msgq policies).
enum class OverflowPolicy : std::uint8_t { kBlock, kDropNewest };

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;

  virtual std::shared_ptr<Sender> make_sender(std::string name) = 0;
  virtual std::shared_ptr<Receiver> make_receiver(
      std::string name, std::size_t high_water_mark = 1 << 16,
      OverflowPolicy policy = OverflowPolicy::kBlock) = 0;

  /// Instrument every sender/receiver this transport creates (including
  /// already-created ones). Safe to call once; null registry is a no-op.
  virtual void attach_metrics(obs::MetricsRegistry* registry) = 0;
};

namespace detail {
/// Evaluate the `transport.before_send` chaos point. Returns true when
/// the send should be refused (kDrop/kFail/kCrash); kDelay sleeps here.
bool send_faulted();
}  // namespace detail

}  // namespace fsmon::transport
