#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "util/bytes.h"

namespace lw::net {
namespace {

Status ErrnoStatus(const std::string& what) {
  return UnavailableError(what + ": " + std::strerror(errno));
}

// Waits until `fd` is ready for `events` (POLLIN/POLLOUT) or the deadline
// expires. Infinite deadlines skip the poll entirely — send/recv block in
// the kernel as before — unless `force_poll` is set, which the EAGAIN
// resume path uses: a non-blocking descriptor never blocks in the kernel,
// so the poll is the only wait there is. Note the wait is real time even if
// the deadline carries a fake clock: a TCP socket cannot be driven by
// virtual time, so deterministic deadline tests use the
// in-memory/fault-injection transports instead (docs/ROBUSTNESS.md).
Status WaitReady(int fd, short events, const Deadline& deadline,
                 const char* what, bool force_poll = false) {
  if (deadline.is_infinite()) {
    if (!force_poll) return Status::Ok();
    for (;;) {
      pollfd pfd{fd, events, 0};
      const int rc = ::poll(&pfd, 1, -1);
      if (rc > 0) return Status::Ok();
      if (rc < 0 && errno != EINTR) return ErrnoStatus("poll");
      obs::M().net_eintr_retries.Inc();
    }
  }
  for (;;) {
    const std::chrono::nanoseconds rem = deadline.remaining();
    if (rem <= std::chrono::nanoseconds::zero()) {
      return DeadlineExceededError(std::string(what) + " deadline expired");
    }
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(rem).count() + 1;
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, ms > 60'000 ? 60'000 : static_cast<int>(ms));
    if (rc < 0) {
      if (errno == EINTR) {
        obs::M().net_eintr_retries.Inc();
        continue;
      }
      return ErrnoStatus("poll");
    }
    if (rc > 0) return Status::Ok();  // readable/writable, or error/hup —
                                      // let send/recv report the real error.
  }
}

// Full-buffer send, EINTR-safe, SIGPIPE suppressed, bounded by `deadline`.
Status SendAll(int fd, const std::uint8_t* data, std::size_t n,
               const Deadline& deadline) {
  std::size_t done = 0;
  while (done < n) {
    LW_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline, "send"));
    // Blocking by design: TcpTransport is the client side's transport; the
    // reactor writes via per-connection send queues (net/reactor.cc).
    // lwlint: allow(blocking-in-reactor)
    const ssize_t w = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        obs::M().net_eintr_retries.Inc();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A non-blocking descriptor (or a full socket buffer after a short
        // write) is not a transport error: wait for writability — even
        // under an infinite deadline, where the pre-send WaitReady skipped
        // the poll — and resume from `done`.
        LW_RETURN_IF_ERROR(
            WaitReady(fd, POLLOUT, deadline, "send", /*force_poll=*/true));
        continue;
      }
      obs::M().net_write_errors.Inc();
      return ErrnoStatus("send");
    }
    obs::M().net_bytes_sent.Inc(static_cast<std::uint64_t>(w));
    done += static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

// Full-buffer receive; UNAVAILABLE on orderly close mid-message too (the
// caller distinguishes close-at-frame-boundary via the `eof_ok` flag).
Status RecvAll(int fd, std::uint8_t* data, std::size_t n, bool eof_ok,
               bool* clean_eof, const Deadline& deadline) {
  if (clean_eof != nullptr) *clean_eof = false;
  std::size_t done = 0;
  while (done < n) {
    LW_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline, "receive"));
    // Blocking by design: client-side transport (see SendAll).
    // lwlint: allow(blocking-in-reactor)
    const ssize_t r = ::recv(fd, data + done, n - done, 0);
    if (r < 0) {
      if (errno == EINTR) {
        obs::M().net_eintr_retries.Inc();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Same resume rule as SendAll: poll for readability and continue.
        LW_RETURN_IF_ERROR(
            WaitReady(fd, POLLIN, deadline, "receive", /*force_poll=*/true));
        continue;
      }
      obs::M().net_read_errors.Inc();
      return ErrnoStatus("recv");
    }
    if (r == 0) {
      if (done == 0 && eof_ok && clean_eof != nullptr) *clean_eof = true;
      // Orderly close at a frame boundary is the normal end of a
      // connection, not a read error.
      if (done != 0 || !eof_ok) obs::M().net_read_errors.Inc();
      return UnavailableError("connection closed by peer");
    }
    obs::M().net_bytes_received.Inc(static_cast<std::uint64_t>(r));
    done += static_cast<std::size_t>(r);
  }
  return Status::Ok();
}

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(int fd) : fd_(fd) {}

  ~TcpTransport() override {
    Close();
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) ::close(fd);
  }

  using Transport::Receive;
  using Transport::Send;

  Status Send(const Frame& frame, const Deadline& deadline) override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0 || closed_.load(std::memory_order_acquire)) {
      return UnavailableError("transport closed");
    }
    const std::size_t body = 1 + frame.payload.size();
    if (body > kMaxFrameSize) {
      return InvalidArgumentError("frame exceeds kMaxFrameSize");
    }
    Bytes wire(4 + body);
    StoreLE32(wire.data(), static_cast<std::uint32_t>(body));
    wire[4] = frame.type;
    std::copy(frame.payload.begin(), frame.payload.end(), wire.begin() + 5);
    return SendAll(fd, wire.data(), wire.size(), deadline);
  }

  Result<Frame> Receive(const Deadline& deadline) override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0 || closed_.load(std::memory_order_acquire)) {
      return UnavailableError("transport closed");
    }
    std::uint8_t header[4];
    bool clean_eof = false;
    LW_RETURN_IF_ERROR(
        RecvAll(fd, header, 4, /*eof_ok=*/true, &clean_eof, deadline));
    const std::uint32_t body = LoadLE32(header);
    if (body == 0 || body > kMaxFrameSize) {
      return ProtocolError("bad frame length " + std::to_string(body));
    }
    Bytes buf(body);
    LW_RETURN_IF_ERROR(RecvAll(fd, buf.data(), body, false, nullptr, deadline));
    Frame f;
    f.type = buf[0];
    f.payload.assign(buf.begin() + 1, buf.end());
    return f;
  }

  // Wakes any thread blocked in Send/Receive (shutdown makes recv return 0)
  // and marks the transport closed. The descriptor itself is released only
  // in the destructor, after every user is gone: closing here would race a
  // concurrent recv, and the kernel could reuse the fd number mid-call.
  void Close() override {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  std::atomic<int> fd_;
  std::atomic<bool> closed_{false};
};

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Result<std::unique_ptr<Transport>> TcpConnect(const std::string& host,
                                              std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("invalid IPv4 address: " + host);
  }
  int rc;
  do {
    // Blocking by design: the client-side dial; the reactor dials via
    // TcpConnectStart + EPOLLOUT (net/reactor.cc).
    // lwlint: allow(blocking-in-reactor)
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const Status s = ErrnoStatus("connect");
    ::close(fd);
    return s;
  }
  SetNoDelay(fd);
  return std::unique_ptr<Transport>(std::make_unique<TcpTransport>(fd));
}

Result<int> TcpConnectStart(const std::string& host, std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("invalid IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  // EINPROGRESS is the non-blocking success: the three-way handshake
  // continues in the kernel and completion (or refusal) is reported via
  // EPOLLOUT + SO_ERROR. rc == 0 (instant loopback connect) is fine too —
  // the epoll registration still sees the socket writable immediately.
  if (rc < 0 && errno != EINPROGRESS) {
    const Status s = ErrnoStatus("connect");
    ::close(fd);
    return s;
  }
  return fd;
}

Result<TcpListener> TcpListener::Listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const Status s = ErrnoStatus("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    const Status s = ErrnoStatus("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const Status s = ErrnoStatus("getsockname");
    ::close(fd);
    return s;
  }
  return TcpListener(fd, ntohs(addr.sin_port));
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1));
    port_ = other.port_;
  }
  return *this;
}

TcpListener::~TcpListener() { Close(); }

Result<std::unique_ptr<Transport>> TcpListener::Accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return UnavailableError("listener closed");
  int client;
  do {
    // Blocking by design: FaultRelay and tests accept here; the reactor
    // accepts non-blockingly via accept4 (net/reactor.cc).
    // lwlint: allow(blocking-in-reactor)
    client = ::accept(fd, nullptr, nullptr);
    if (client < 0 && errno == EINTR) obs::M().net_eintr_retries.Inc();
  } while (client < 0 && errno == EINTR);
  if (client < 0) {
    obs::M().net_accept_errors.Inc();
    return ErrnoStatus("accept");
  }
  obs::M().net_accepts.Inc();
  SetNoDelay(client);
  return std::unique_ptr<Transport>(std::make_unique<TcpTransport>(client));
}

void TcpListener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace lw::net
