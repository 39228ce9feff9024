#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/error.h"

// SIGPIPE discipline: writing into a peer-closed socket must surface as a
// typed NetError{kIo}, never as process death. Linux suppresses the signal
// per-send via MSG_NOSIGNAL; BSD/macOS lack that flag but offer the
// per-socket SO_NOSIGPIPE option. Cover both: define the flag away where it
// does not exist and arm the socket option where it does, so every
// write_some() path is signal-free on either platform.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace oasis::net {
namespace {

void set_no_sigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

[[noreturn]] void throw_io(const std::string& op) {
  const int err = errno;
  throw NetError(NetError::Reason::kIo,
                 op + ": " + std::strerror(err) + " (errno " +
                     std::to_string(err) + ")");
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_io("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError(NetError::Reason::kIo,
                   "not a numeric IPv4 address: '" + host + "'");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(const std::string& host, std::uint16_t port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_io("socket");
  const int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    throw_io("setsockopt(SO_REUSEADDR)");
  }
  const sockaddr_in addr = make_addr(host, port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    throw_io("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), backlog) < 0) throw_io("listen");
  set_nonblocking(sock.fd());
  return sock;
}

Socket tcp_connect(const std::string& host, std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_io("socket");
  const sockaddr_in addr = make_addr(host, port);
  // Blocking connect: on loopback this completes as soon as the kernel
  // queues the connection on the listener's backlog — it does not wait for
  // the server to accept(), so even a single-threaded steppable test never
  // deadlocks here.
  int rc;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_io("connect " + host + ":" + std::to_string(port));
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_no_sigpipe(sock.fd());
  set_nonblocking(sock.fd());
  return sock;
}

Socket tcp_accept(const Socket& listener) {
  int fd;
  do {
    fd = ::accept(listener.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return Socket();
    }
    throw_io("accept");
  }
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_no_sigpipe(sock.fd());
  set_nonblocking(sock.fd());
  return sock;
}

std::uint16_t local_port(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    throw_io("getsockname");
  }
  return ntohs(addr.sin_port);
}

long read_some(const Socket& socket, std::uint8_t* out, std::size_t n) {
  ssize_t got;
  do {
    got = ::recv(socket.fd(), out, n, 0);
  } while (got < 0 && errno == EINTR);
  if (got > 0) return static_cast<long>(got);
  if (got == 0) return -1;  // orderly peer shutdown
  if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
  throw_io("recv");
}

long write_some(const Socket& socket, const std::uint8_t* data,
                std::size_t n) {
  const iovec piece{const_cast<std::uint8_t*>(data), n};
  return write_some(socket, std::span<const iovec>(&piece, 1));
}

long write_some(const Socket& socket, std::span<const iovec> pieces) {
  // sendmsg, not writev: only a send call takes MSG_NOSIGNAL.
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(pieces.data());
  msg.msg_iovlen = pieces.size();
  ssize_t put;
  do {
    put = ::sendmsg(socket.fd(), &msg, MSG_NOSIGNAL);
  } while (put < 0 && errno == EINTR);
  if (put >= 0) return static_cast<long>(put);
  if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
  throw_io("send");
}

}  // namespace oasis::net
