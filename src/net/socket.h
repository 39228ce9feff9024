// Thin RAII layer over POSIX TCP sockets.
//
// Everything oasis::net touches a file descriptor through lives here:
// non-blocking listeners/connections, EINTR-safe read/write that report
// would-block as zero progress, and ephemeral-port discovery for tests
// (listen on port 0, ask the kernel what it picked). Only numeric IPv4
// addresses are accepted — name resolution is nondeterministic and the
// serving layer's tests demand reproducible behavior.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <span>
#include <string>

namespace oasis::net {

/// Move-only owner of one socket fd. Closing is idempotent; a destructed
/// socket never leaks its descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Binds + listens a non-blocking TCP socket on `host:port` (numeric IPv4;
/// port 0 asks the kernel for an ephemeral port — read it back with
/// local_port). Throws NetError{kIo} on any syscall failure.
Socket tcp_listen(const std::string& host, std::uint16_t port,
                  int backlog = 64);

/// Connects to `host:port` (numeric IPv4), returning a connected socket
/// already switched to non-blocking mode. Throws NetError{kIo} when the
/// connection is refused or any syscall fails.
Socket tcp_connect(const std::string& host, std::uint16_t port);

/// Accepts one pending connection as a non-blocking socket. Returns an
/// invalid Socket when no connection is pending.
Socket tcp_accept(const Socket& listener);

/// The port a bound socket actually listens on (resolves port 0).
std::uint16_t local_port(const Socket& socket);

/// Reads up to `n` bytes. Returns bytes read, 0 when the read would block,
/// and -1 when the peer closed the connection. Throws NetError{kIo} on
/// errno-level failure. EINTR is retried internally.
long read_some(const Socket& socket, std::uint8_t* out, std::size_t n);

/// Writes up to `n` bytes (MSG_NOSIGNAL — a dead peer yields an error, not
/// SIGPIPE). Returns bytes written, 0 when the write would block. Throws
/// NetError{kIo} on failure (including EPIPE/ECONNRESET).
long write_some(const Socket& socket, const std::uint8_t* data, std::size_t n);

/// write_some over scattered pieces, in order, as one sendmsg: a frame's
/// head and its payload leave from where they lie, with no joining copy.
long write_some(const Socket& socket, std::span<const iovec> pieces);

}  // namespace oasis::net
