// TcpTransport: the socket carrier for stages on different hosts
// (collectors on MDS nodes, shards on the MGS, consumers on clients).
//
// A sender listens on an ephemeral loopback port. connect(receiver)
// makes the receiver dial it and send one "\x01sub" control frame per
// topic filter, and returns once the sender has registered them; send()
// goes only to connections with a matching filter. Every message is a
// transport::WireFrame, written as header, FrameRef payload and CRC
// trailer with one scatter-gather sendmsg — no wire buffer is assembled
// (the receive side materializes the bytes: a wire transfer, not a
// counted frame copy). A receiver runs one reader thread per dialed
// sender, all pushing into one bounded inbox, so its high-water mark
// and overflow policy are per receiver, as on the in-process carrier.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "src/transport/transport.hpp"

namespace fsmon::transport {

class TcpConnection;
class TcpSender;

struct TcpTransportOptions {
  /// Address receivers dial to reach a sender's listener.
  std::string host = "127.0.0.1";
};

/// close() tears the connections down; reopen() re-dials every sender
/// dialed before and re-registers the filters (restart semantics —
/// frames sent while closed are gone, recovery is replay's job).
class TcpReceiver : public Receiver {
 public:
  TcpReceiver(std::string name, std::size_t high_water_mark, OverflowPolicy policy,
              std::string host);
  ~TcpReceiver() override;

  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  std::optional<Frame> try_recv() override;
  /// Registers on every live connection; the sender applies it
  /// asynchronously (subscribe before connect() to have it in force).
  void subscribe(std::string_view prefix) override;
  void close() override;
  void reopen() override;
  bool closed() const override;
  std::size_t pending() const override;
  std::uint64_t dropped() const override;
  const std::string& name() const override { return name_; }

 private:
  friend class TcpSender;

  struct Endpoint {
    std::weak_ptr<TcpSender> sender;
    std::uint16_t port = 0;
    std::shared_ptr<TcpConnection> connection;  ///< Null while closed.
    std::jthread reader;
  };

  /// Dial the sender on `port` and wait until it has registered the
  /// filters. Throws std::runtime_error when the dial fails.
  void dial(const std::shared_ptr<TcpSender>& sender, std::uint16_t port);
  /// Drop the connections to the sender listening on `port`.
  void undial(std::uint16_t port);
  /// Open `endpoint`'s connection, send the filters and start its reader
  /// (mu_ held). Returns the connection's local port; throws like dial().
  std::uint16_t open_locked(Endpoint& endpoint);
  /// Shut the connection down and join the reader (mu_ not held).
  static void hang_up(Endpoint& endpoint);
  void read_loop(std::stop_token stop, const std::shared_ptr<TcpConnection>& connection);
  std::optional<Frame> pop_locked();

  const std::string name_;
  const std::string host_;
  const std::size_t high_water_mark_;
  const OverflowPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable_any not_full_;  ///< Readers blocked by kBlock.
  std::deque<Frame> inbox_;
  std::size_t blocked_readers_ = 0;
  std::uint64_t dropped_ = 0;
  bool closed_ = false;
  std::vector<std::string> filters_;
  std::vector<Endpoint> endpoints_;
};

class TcpSender : public Sender, public std::enable_shared_from_this<TcpSender> {
 public:
  TcpSender(std::string name, std::string host);
  ~TcpSender() override;

  SendResult send(std::string_view topic, FrameRef frame) override;
  void connect(const std::shared_ptr<Receiver>& receiver) override;
  void disconnect(const std::shared_ptr<Receiver>& receiver) override;
  /// Live connections, or 1 when every previously-connected receiver has
  /// vanished (see send() — a vanished receiver refuses, never drops).
  std::size_t receiver_count() const override;
  std::uint64_t sent() const override { return sent_.load(); }
  const std::string& name() const override { return name_; }

  void set_metrics(TransportMetrics metrics) { metrics_ = metrics; }

 private:
  friend class TcpReceiver;

  struct Remote {
    std::shared_ptr<TcpConnection> connection;
    std::uint16_t peer_port = 0;
    std::vector<std::string> filters;
    std::jthread reader;  ///< Reads the control frames; declared last.
  };

  void accept_loop(std::stop_token stop);
  void control_loop(Remote& remote);
  /// Wait until the connection from local port `peer_port` has
  /// registered `filters` subscriptions (bounded by a 5 s deadline).
  void await_filters(std::uint16_t peer_port, std::size_t filters);
  std::size_t live_connections() const;

  const std::string name_;
  const std::string host_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  mutable std::mutex mu_;
  std::condition_variable registered_;
  std::vector<std::unique_ptr<Remote>> remotes_;
  std::jthread accept_thread_;
  std::atomic<std::uint64_t> sent_{0};
  /// Set once a receiver connection has ever been observed: over sockets
  /// a crashed receiver looks like a never-connected one, but the refusal
  /// protocol tells them apart (mutable: const receiver_count() sets it).
  mutable std::atomic<bool> had_receiver_{false};
  TransportMetrics metrics_;
};

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options = {});
  /// False where the sandbox forbids creating sockets.
  static bool available();

  TransportKind kind() const override { return TransportKind::kTcp; }
  std::shared_ptr<Sender> make_sender(std::string name) override;
  std::shared_ptr<Receiver> make_receiver(std::string name, std::size_t high_water_mark,
                                          OverflowPolicy policy) override;
  void attach_metrics(obs::MetricsRegistry* registry) override;

 private:
  const TcpTransportOptions options_;
  std::mutex mu_;
  std::vector<std::shared_ptr<TcpSender>> senders_;
  TransportMetrics metrics_;
  bool metrics_attached_ = false;
};

}  // namespace fsmon::transport
