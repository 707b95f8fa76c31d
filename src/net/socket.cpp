#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace exawatt::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: a socketpair or exotic transport without TCP_NODELAY
  // still works, just with Nagle latency.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

IoResult classify_io(ssize_t n, bool is_read) {
  if (n > 0) return {IoStatus::kOk, static_cast<std::size_t>(n)};
  if (n == 0) {
    // A zero read is orderly EOF. A zero write accepted no bytes but is
    // not an error, and errno is stale either way — report would-block
    // and let the caller wait for POLLOUT rather than acting on leftover
    // errno from an unrelated call.
    return is_read ? IoResult{IoStatus::kClosed, 0}
                   : IoResult{IoStatus::kWouldBlock, 0};
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return {IoStatus::kWouldBlock, 0};
  }
  return {IoStatus::kError, 0};
}

/// True when any of `fds` is ready, false on timeout.
bool poll_fds(pollfd* fds, std::size_t n, int timeout_ms) {
  for (;;) {
    const int rc = ::poll(fds, n, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return rc > 0;
  }
}

bool poll_one(int fd, short events, int timeout_ms) {
  pollfd p{fd, events, 0};
  return poll_fds(&p, 1, timeout_ms);
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream::TcpStream(Fd fd) : fd_(std::move(fd)) {
  set_nonblocking(fd_.get());
  set_nodelay(fd_.get());
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port,
                             int timeout_ms) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  set_nonblocking(fd.get());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("invalid address: " + host);
  }
  const int rc =
      ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) throw_errno("connect " + host);
  if (rc < 0) {
    if (!poll_one(fd.get(), POLLOUT, timeout_ms)) {
      throw NetError("connect timeout: " + host + ":" + std::to_string(port));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      throw NetError("connect " + host + ":" + std::to_string(port) + ": " +
                     std::strerror(err != 0 ? err : errno));
    }
  }
  set_nodelay(fd.get());
  TcpStream stream;
  stream.fd_ = std::move(fd);
  return stream;
}

IoResult TcpStream::read_some(std::uint8_t* buf, std::size_t len) {
  const ssize_t n = ::recv(fd_.get(), buf, len, 0);
  return classify_io(n, /*is_read=*/true);
}

IoResult TcpStream::write_some(const std::uint8_t* buf, std::size_t len) {
  const ssize_t n = ::send(fd_.get(), buf, len, MSG_NOSIGNAL);
  return classify_io(n, /*is_read=*/false);
}

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

bool wait_any_readable(const std::vector<int>& fds, int timeout_ms) {
  std::vector<pollfd> polls;
  polls.reserve(fds.size());
  for (const int fd : fds) polls.push_back({fd, POLLIN, 0});
  return poll_fds(polls.data(), polls.size(), timeout_ms);
}

bool TcpStream::wait_readable(int timeout_ms) {
  return poll_one(fd_.get(), POLLIN, timeout_ms);
}

bool TcpStream::wait_writable(int timeout_ms) {
  return poll_one(fd_.get(), POLLOUT, timeout_ms);
}

void TcpStream::write_all(const std::uint8_t* buf, std::size_t len,
                          int deadline_poll_ms) {
  std::size_t sent = 0;
  while (sent < len) {
    const IoResult r = write_some(buf + sent, len - sent);
    switch (r.status) {
      case IoStatus::kOk:
        sent += r.n;
        break;
      case IoStatus::kWouldBlock:
        if (!wait_writable(deadline_poll_ms)) {
          throw NetError("write timeout");
        }
        break;
      default:
        throw NetError("write failed: connection lost");
    }
  }
}

void TcpStream::shutdown_write() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
}

TcpListener TcpListener::bind(std::uint16_t port, bool loopback_only,
                              int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind port " + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) < 0) throw_errno("listen");
  set_nonblocking(fd.get());

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw_errno("getsockname");
  }
  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

TcpStream TcpListener::accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return {};
    }
    throw_errno("accept");
  }
  return TcpStream(Fd(fd));
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) < 0) throw_errno("pipe");
  read_ = Fd(fds[0]);
  write_ = Fd(fds[1]);
  set_nonblocking(read_.get());
  set_nonblocking(write_.get());
}

void WakePipe::notify() {
  const std::uint8_t b = 1;
  // A full pipe or EINTR is fine: the poller is already due to wake.
  [[maybe_unused]] const ssize_t rc = ::write(write_.get(), &b, 1);
}

void WakePipe::drain() {
  std::uint8_t buf[256];
  while (::read(read_.get(), buf, sizeof(buf)) > 0) {
  }
}

}  // namespace exawatt::net
