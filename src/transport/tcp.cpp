#include "src/transport/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace fsmon::transport {
namespace {

/// Control topic a receiver registers one topic filter under.
constexpr std::string_view kSubTopic = "\x01sub";

std::runtime_error socket_error(const std::string& what) {
  return std::runtime_error("tcp: " + what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Dial `host`:`port`; returns the connected fd.
int connect_socket(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("tcp: bad host address: " + host);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw socket_error("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const auto error = socket_error("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    throw error;
  }
  set_nodelay(fd);
  return fd;
}

std::uint16_t port_of(int fd, bool peer) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  auto* out = reinterpret_cast<sockaddr*>(&addr);
  const int rc = peer ? ::getpeername(fd, out, &len) : ::getsockname(fd, out, &len);
  return rc == 0 ? ntohs(addr.sin_port) : 0;
}

/// Scatter-gather write of the whole iovec array, advancing across
/// partial writes. sendmsg rather than writev so MSG_NOSIGNAL still
/// suppresses SIGPIPE on a vanished peer.
bool write_gather(int fd, iovec* iov, std::size_t iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    std::size_t advanced = static_cast<std::size_t>(n);
    while (iovcnt > 0 && advanced >= iov->iov_len) {
      advanced -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + advanced;
      iov->iov_len -= advanced;
    }
  }
  return true;
}

std::span<const std::byte> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::byte*>(text.data()), text.size()};
}

}  // namespace

/// Framed, blocking message I/O over one socket.
class TcpConnection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection() {
    close();
    ::close(fd_);
  }

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  bool send(std::string_view topic, std::span<const std::byte> payload) {
    if (closed_.load() || topic.size() > kMaxWireField || payload.size() > kMaxWireField)
      return false;
    // Only the header and the trailer are built here; the payload goes
    // from the caller's buffer straight into sendmsg.
    std::vector<std::byte> header = wire_header(topic, payload.size());
    std::byte trailer[4];
    put_u32_le(trailer, wire_crc(header, payload));
    iovec iov[3] = {{header.data(), header.size()},
                    {const_cast<std::byte*>(payload.data()), payload.size()},
                    {trailer, sizeof(trailer)}};
    std::lock_guard lock(send_mu_);
    if (write_gather(fd_, iov, 3)) return true;
    close();
    return false;
  }

  /// Block until at least one whole frame has arrived, then append every
  /// whole frame buffered to `out`. False once the peer has gone, the
  /// socket has been shut down, or a frame fails its CRC.
  bool read(std::vector<Frame>& out) {
    for (;;) {
      if (filled_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
      const ssize_t n = ::recv(fd_, buffer_.data() + filled_, buffer_.size() - filled_, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        close();
        return false;
      }
      filled_ += static_cast<std::size_t>(n);
      std::size_t used = 0;
      try {
        while (auto frame = parse_wire_frame(
                   std::span<const std::byte>(buffer_.data() + used, filled_ - used))) {
          const auto payload = frame->payload;
          out.push_back(Frame{std::string(frame->topic),
                              FrameRef::adopt(std::vector<std::byte>(payload.begin(),
                                                                     payload.end()))});
          used += frame->size;
        }
      } catch (const std::runtime_error&) {
        close();
        return false;
      }
      std::memmove(buffer_.data(), buffer_.data() + used, filled_ - used);
      filled_ -= used;
      if (!out.empty()) return true;
    }
  }

  /// Shut the socket down, waking any thread blocked in send() or
  /// read(). The descriptor is released by the destructor, once no
  /// thread can still use it — closing it here would race a concurrent
  /// ::recv and could hand that thread a recycled fd.
  void close() {
    if (!closed_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
  }
  bool closed() const { return closed_.load(); }
  std::uint16_t local_port() const { return port_of(fd_, /*peer=*/false); }
  std::uint16_t peer_port() const { return port_of(fd_, /*peer=*/true); }

 private:
  const int fd_;
  std::atomic<bool> closed_{false};
  std::mutex send_mu_;
  std::vector<std::byte> buffer_ = std::vector<std::byte>(64 * 1024);  ///< Reader only.
  std::size_t filled_ = 0;
};

TcpReceiver::TcpReceiver(std::string name, std::size_t high_water_mark,
                         OverflowPolicy policy, std::string host)
    : name_(std::move(name)),
      host_(std::move(host)),
      high_water_mark_(high_water_mark),
      policy_(policy) {
  if (high_water_mark_ == 0)
    throw std::invalid_argument("TcpReceiver high-water mark must be > 0");
}

TcpReceiver::~TcpReceiver() { close(); }

std::optional<Frame> TcpReceiver::pop_locked() {
  if (inbox_.empty()) return std::nullopt;
  Frame frame = std::move(inbox_.front());
  inbox_.pop_front();
  if (blocked_readers_ > 0) not_full_.notify_one();
  return frame;
}

std::optional<Frame> TcpReceiver::recv(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  const auto ready = [&] { return closed_ || !inbox_.empty(); };
  if (timeout.count() < 0) {
    not_empty_.wait(lock, ready);
  } else {
    not_empty_.wait_for(lock, timeout, ready);
  }
  return pop_locked();  // closed: drain the backlog, then end of stream
}

std::optional<Frame> TcpReceiver::try_recv() {
  std::lock_guard lock(mu_);
  return pop_locked();
}

void TcpReceiver::read_loop(std::stop_token stop,
                            const std::shared_ptr<TcpConnection>& connection) {
  std::vector<Frame> frames;
  while (connection->read(frames)) {
    std::unique_lock lock(mu_);
    for (Frame& frame : frames) {
      if (closed_) break;  // a closed receiver keeps nothing
      if (inbox_.size() >= high_water_mark_) {
        if (policy_ == OverflowPolicy::kDropNewest) {
          ++dropped_;
          continue;
        }
        not_empty_.notify_one();  // let recv() drain what is queued
        ++blocked_readers_;
        not_full_.wait(lock, stop,
                       [&] { return closed_ || inbox_.size() < high_water_mark_; });
        --blocked_readers_;
        if (stop.stop_requested() || closed_) break;
      }
      inbox_.push_back(std::move(frame));
    }
    lock.unlock();
    frames.clear();
    not_empty_.notify_one();
    if (stop.stop_requested()) return;
  }
}

std::uint16_t TcpReceiver::open_locked(Endpoint& endpoint) {
  auto connection = std::make_shared<TcpConnection>(connect_socket(host_, endpoint.port));
  for (const auto& prefix : filters_) connection->send(kSubTopic, as_bytes(prefix));
  endpoint.connection = connection;
  endpoint.reader = std::jthread(
      [this, connection](std::stop_token stop) { read_loop(stop, connection); });
  return connection->local_port();
}

void TcpReceiver::hang_up(Endpoint& endpoint) {
  if (endpoint.connection != nullptr) endpoint.connection->close();
  endpoint.reader = {};  // request_stop + join
  endpoint.connection.reset();
}

void TcpReceiver::dial(const std::shared_ptr<TcpSender>& sender, std::uint16_t port) {
  std::uint16_t local_port = 0;
  std::size_t filters = 0;
  {
    std::lock_guard lock(mu_);
    Endpoint endpoint;
    endpoint.sender = sender;
    endpoint.port = port;
    // A closed receiver only remembers the sender; reopen() dials it.
    if (!closed_) local_port = open_locked(endpoint);
    filters = filters_.size();
    endpoints_.push_back(std::move(endpoint));
  }
  if (local_port != 0) sender->await_filters(local_port, filters);
}

void TcpReceiver::undial(std::uint16_t port) {
  std::vector<Endpoint> gone;
  {
    std::lock_guard lock(mu_);
    for (auto& endpoint : endpoints_) {
      if (endpoint.port == port) gone.push_back(std::move(endpoint));
    }
    std::erase_if(endpoints_, [&](const Endpoint& e) { return e.port == port; });
  }
  for (auto& endpoint : gone) hang_up(endpoint);
}

void TcpReceiver::subscribe(std::string_view prefix) {
  std::lock_guard lock(mu_);
  filters_.emplace_back(prefix);
  for (auto& endpoint : endpoints_) {
    if (endpoint.connection != nullptr) endpoint.connection->send(kSubTopic, as_bytes(prefix));
  }
}

void TcpReceiver::close() {
  std::vector<Endpoint> live;
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    // Keep each endpoint's sender and port: reopen() re-dials them.
    for (auto& endpoint : endpoints_) {
      Endpoint moved;
      moved.connection = std::move(endpoint.connection);
      moved.reader = std::move(endpoint.reader);
      live.push_back(std::move(moved));
    }
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& endpoint : live) hang_up(endpoint);
}

void TcpReceiver::reopen() {
  std::vector<std::pair<std::shared_ptr<TcpSender>, std::uint16_t>> dialed;
  std::size_t filters = 0;
  {
    std::lock_guard lock(mu_);
    closed_ = false;
    inbox_.clear();  // a restarted stage has no pre-crash backlog
    filters = filters_.size();
    for (auto& endpoint : endpoints_) {
      if (endpoint.connection != nullptr) continue;
      auto sender = endpoint.sender.lock();
      if (sender == nullptr) continue;
      try {
        dialed.emplace_back(std::move(sender), open_locked(endpoint));
      } catch (const std::runtime_error&) {
        // Sender gone (stage torn down mid-restart); stay dark.
      }
    }
  }
  for (const auto& [sender, local_port] : dialed) sender->await_filters(local_port, filters);
}

bool TcpReceiver::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

std::size_t TcpReceiver::pending() const {
  std::lock_guard lock(mu_);
  return inbox_.size();
}

std::uint64_t TcpReceiver::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

TcpSender::TcpSender(std::string name, std::string host)
    : name_(std::move(name)), host_(std::move(host)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw socket_error("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const auto error = socket_error("listen");
    ::close(listen_fd_);
    throw error;
  }
  port_ = port_of(listen_fd_, /*peer=*/false);
  accept_thread_ = std::jthread([this](std::stop_token stop) { accept_loop(stop); });
}

TcpSender::~TcpSender() {
  // Wake the accept thread with shutdown, join it, and only then close
  // the descriptor — closing while accept4 still blocks on it races.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.request_stop();
  accept_thread_.join();
  ::close(listen_fd_);
  std::vector<std::unique_ptr<Remote>> remotes;
  {
    std::lock_guard lock(mu_);
    remotes.swap(remotes_);
  }
  for (auto& remote : remotes) remote->connection->close();
  // Destroying each Remote joins its control reader.
}

void TcpSender::accept_loop(std::stop_token stop) {
  while (!stop.stop_requested()) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    set_nodelay(fd);
    auto remote = std::make_unique<Remote>();
    remote->connection = std::make_shared<TcpConnection>(fd);
    remote->peer_port = remote->connection->peer_port();
    std::vector<std::unique_ptr<Remote>> dead;
    {
      std::lock_guard lock(mu_);
      // Forget connections that have gone away; their readers are joined
      // below, off the lock.
      for (auto& old : remotes_) {
        if (old->connection->closed()) dead.push_back(std::move(old));
      }
      std::erase(remotes_, nullptr);
      Remote& fresh = *remote;
      fresh.reader = std::jthread([this, &fresh] { control_loop(fresh); });
      remotes_.push_back(std::move(remote));
    }
    registered_.notify_all();
  }
}

void TcpSender::control_loop(Remote& remote) {
  std::vector<Frame> frames;
  while (remote.connection->read(frames)) {
    {
      std::lock_guard lock(mu_);
      for (const Frame& frame : frames) {
        if (frame.topic == kSubTopic) remote.filters.emplace_back(frame.payload.chars());
      }
    }
    frames.clear();
    registered_.notify_all();
  }
}

void TcpSender::await_filters(std::uint16_t peer_port, std::size_t filters) {
  std::unique_lock lock(mu_);
  registered_.wait_for(lock, std::chrono::seconds(5), [&] {
    for (const auto& remote : remotes_) {
      if (remote->peer_port == peer_port && !remote->connection->closed())
        return remote->filters.size() >= filters;
    }
    return false;
  });
}

void TcpSender::connect(const std::shared_ptr<Receiver>& receiver) {
  auto tcp = std::dynamic_pointer_cast<TcpReceiver>(receiver);
  if (tcp == nullptr) {
    throw std::invalid_argument("TcpSender::connect: receiver is not a TCP receiver");
  }
  tcp->dial(shared_from_this(), port_);
  had_receiver_.store(true, std::memory_order_relaxed);
}

void TcpSender::disconnect(const std::shared_ptr<Receiver>& receiver) {
  auto tcp = std::dynamic_pointer_cast<TcpReceiver>(receiver);
  if (tcp != nullptr) tcp->undial(port_);
}

std::size_t TcpSender::live_connections() const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      remotes_.begin(), remotes_.end(),
      [](const auto& remote) { return !remote->connection->closed(); }));
}

std::size_t TcpSender::receiver_count() const {
  const std::size_t live = live_connections();
  if (live > 0) {
    had_receiver_.store(true, std::memory_order_relaxed);
    return live;
  }
  return had_receiver_.load(std::memory_order_relaxed) ? 1 : 0;
}

SendResult TcpSender::send(std::string_view topic, FrameRef frame) {
  SendResult result;
  if (detail::send_faulted()) {
    result.receivers = std::max<std::uint64_t>(live_connections(), 1);
    return result;
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<TcpConnection>> targets;
  {
    std::lock_guard lock(mu_);
    for (const auto& remote : remotes_) {
      if (remote->connection->closed()) continue;
      ++result.receivers;
      if (std::any_of(remote->filters.begin(), remote->filters.end(),
                      [&](const std::string& prefix) { return topic.starts_with(prefix); }))
        targets.push_back(remote->connection);
    }
  }
  for (const auto& connection : targets) {
    if (connection->send(topic, frame.bytes())) ++result.accepted;
  }
  if (result.receivers > 0) {
    had_receiver_.store(true, std::memory_order_relaxed);
  } else if (had_receiver_.load(std::memory_order_relaxed)) {
    // Every connection is gone. In-proc and shm keep a crashed stage's
    // inbox, so their sends into it are refused; here its socket just
    // vanishes, and "nobody listening — fine to drop" would let a
    // collector replaying an unacked suffix into a shard's teardown /
    // re-dial window advance past frames no one received (the reconnect
    // suffix-loss race). Report one refusing receiver instead, so the
    // producer rewinds until the replacement connection lands.
    result.receivers = 1;
  }
  metrics_.on_send(result.accepted, result.accepted * frame.size());
  return result;
}

TcpTransport::TcpTransport(TcpTransportOptions options) : options_(std::move(options)) {}

bool TcpTransport::available() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd >= 0) ::close(fd);
  return fd >= 0;
}

std::shared_ptr<Sender> TcpTransport::make_sender(std::string name) {
  auto sender = std::make_shared<TcpSender>(std::move(name), options_.host);
  std::lock_guard lock(mu_);
  if (metrics_attached_) sender->set_metrics(metrics_);
  senders_.push_back(sender);
  return sender;
}

std::shared_ptr<Receiver> TcpTransport::make_receiver(std::string name,
                                                      std::size_t high_water_mark,
                                                      OverflowPolicy policy) {
  return std::make_shared<TcpReceiver>(std::move(name), high_water_mark, policy,
                                       options_.host);
}

void TcpTransport::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  std::lock_guard lock(mu_);
  metrics_ = TransportMetrics::create(*registry, TransportKind::kTcp);
  metrics_attached_ = true;
  for (auto& sender : senders_) sender->set_metrics(metrics_);
}

}  // namespace fsmon::transport
