#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace exawatt::net {

/// Transport-layer error: failed syscalls, refused connections, timeouts.
/// Protocol-level damage (bad magic, CRC mismatch) is FrameError instead —
/// the two are handled differently: transport errors close the peer,
/// protocol errors are answered first.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RAII file descriptor. Move-only; closes on destruction. The base of
/// every socket/pipe wrapper in src/net so no error path can leak an fd.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Release ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Result of one non-blocking read/write attempt.
enum class IoStatus : std::uint8_t {
  kOk,          ///< progress was made (`n` bytes)
  kWouldBlock,  ///< no progress now; retry after poll readiness
  kClosed,      ///< orderly peer shutdown (reads only)
  kError,       ///< connection-fatal errno (reset, broken pipe, ...)
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t n = 0;
};

/// A connected TCP stream in non-blocking mode (TCP_NODELAY set: the
/// request/response protocol is latency-bound, not throughput-bound).
class TcpStream {
 public:
  TcpStream() = default;
  /// Adopt an accepted fd (switches it to non-blocking).
  explicit TcpStream(Fd fd);

  /// Blocking connect with timeout, then switch to non-blocking.
  /// Throws NetError on failure or timeout.
  [[nodiscard]] static TcpStream connect(const std::string& host,
                                         std::uint16_t port,
                                         int timeout_ms);

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool valid() const { return fd_.valid(); }

  /// One recv(2) attempt into `buf`; never blocks.
  [[nodiscard]] IoResult read_some(std::uint8_t* buf, std::size_t len);
  /// One send(2) attempt; never blocks, may write a prefix.
  [[nodiscard]] IoResult write_some(const std::uint8_t* buf, std::size_t len);

  /// Wait for readability/writability; true when ready, false on timeout.
  /// `timeout_ms < 0` waits forever. Throws NetError on poll failure.
  [[nodiscard]] bool wait_readable(int timeout_ms);
  [[nodiscard]] bool wait_writable(int timeout_ms);

  /// Send everything or throw NetError; `deadline_poll_ms` bounds each
  /// internal poll wait (the sync client's per-request timeout).
  void write_all(const std::uint8_t* buf, std::size_t len,
                 int deadline_poll_ms);

  void shutdown_write();
  void close() { fd_.reset(); }

 private:
  Fd fd_;
};

/// Milliseconds left until `deadline`, 0 once it has passed — the
/// timeout argument of the waits below.
[[nodiscard]] int remaining_ms(std::chrono::steady_clock::time_point deadline);

/// Wait until at least one of `fds` is readable or hung up; false on
/// timeout. `timeout_ms < 0` waits forever. Throws NetError on poll
/// failure.
[[nodiscard]] bool wait_any_readable(const std::vector<int>& fds,
                                     int timeout_ms);

/// A listening TCP socket bound to 127.0.0.1 (or all interfaces) with
/// SO_REUSEADDR; `port == 0` binds an ephemeral port — `local_port()`
/// reports the kernel's choice, which is how tests and benches avoid
/// port collisions.
class TcpListener {
 public:
  TcpListener() = default;
  [[nodiscard]] static TcpListener bind(std::uint16_t port,
                                        bool loopback_only = true,
                                        int backlog = 128);

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] std::uint16_t local_port() const { return port_; }

  /// Accept one pending connection; invalid stream when none is pending
  /// (the listener is non-blocking). Throws NetError on fatal failure.
  [[nodiscard]] TcpStream accept();

  void close() { fd_.reset(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// A non-blocking self-pipe: worker threads write a byte to wake the
/// poll loop out of its wait. Writes from any thread are async-safe.
class WakePipe {
 public:
  WakePipe();

  [[nodiscard]] int read_fd() const { return read_.get(); }
  /// Wake the poller; coalesces (a full pipe is already a wakeup).
  void notify();
  /// Drain pending wakeups (loop thread only).
  void drain();

 private:
  Fd read_;
  Fd write_;
};

}  // namespace exawatt::net
