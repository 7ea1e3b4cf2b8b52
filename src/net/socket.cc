#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>

namespace hardsnap::net {

namespace {

Status Errno(const std::string& what) {
  const int e = errno;
  const std::string msg = what + ": " + std::strerror(e);
  switch (e) {
    case ECONNREFUSED:
    case ECONNRESET:
    case EPIPE:
    case ENOTCONN:
    case ENOENT:  // unix path not there (server not up yet)
      return Unavailable(msg);
    case ETIMEDOUT:
      return DeadlineExceeded(msg);
    default:
      return Internal(msg);
  }
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Waits for `events` on `fd` within the remaining budget. Returns 1 when
// ready, 0 on timeout, -1 on error (errno set).
int PollFor(int fd, short events, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  p.revents = 0;
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r >= 0) return r;
    if (errno != EINTR) return -1;
  }
}

Status FillSockaddr(const Address& addr, struct sockaddr_storage* ss,
                    socklen_t* len) {
  std::memset(ss, 0, sizeof(*ss));
  if (addr.family == Address::Family::kUnix) {
    auto* un = reinterpret_cast<struct sockaddr_un*>(ss);
    un->sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(un->sun_path))
      return InvalidArgument("unix socket path too long: " + addr.path);
    std::memcpy(un->sun_path, addr.path.c_str(), addr.path.size() + 1);
    *len = static_cast<socklen_t>(sizeof(*un));
    return Status::Ok();
  }
  auto* in4 = reinterpret_cast<struct sockaddr_in*>(ss);
  in4->sin_family = AF_INET;
  in4->sin_port = htons(addr.port);
  const std::string host = addr.host == "localhost" ? "127.0.0.1" : addr.host;
  if (::inet_pton(AF_INET, host.c_str(), &in4->sin_addr) != 1) {
    // Fall back to resolver for names. IPv4 only — the analysis hosts and
    // device servers this links live on lab networks.
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof hints);
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || !res)
      return Unavailable("cannot resolve host '" + addr.host + "'");
    in4->sin_addr =
        reinterpret_cast<struct sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  *len = static_cast<socklen_t>(sizeof(*in4));
  return Status::Ok();
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::Connect(const Address& addr, int timeout_ms) {
  struct sockaddr_storage ss;
  socklen_t len = 0;
  HS_RETURN_IF_ERROR(FillSockaddr(addr, &ss, &len));
  const int domain =
      addr.family == Address::Family::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);

  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&ss), len);
  if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN)
    return Errno("connect " + addr.ToString());
  if (rc != 0) {
    const int ready = PollFor(fd, POLLOUT, timeout_ms);
    if (ready < 0) return Errno("connect poll");
    if (ready == 0)
      return DeadlineExceeded("connect to " + addr.ToString() + " timed out");

    int err = 0;
    socklen_t errlen = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
    if (err != 0) {
      errno = err;
      return Errno("connect " + addr.ToString());
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; deadlines use poll
  if (addr.family == Address::Family::kTcp) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return sock;
}

Status Socket::SendAll(const void* data, size_t n) {
  if (fd_ < 0) return Unavailable("send on closed socket");
  const auto* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::Ok();
}

Status Socket::RecvAll(void* data, size_t n, int timeout_ms,
                       size_t* received) {
  if (received) *received = 0;
  if (fd_ < 0) return Unavailable("recv on closed socket");
  auto* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  const int64_t deadline = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  while (got < n) {
    int wait = -1;
    if (deadline >= 0) {
      const int64_t left = deadline - NowMs();
      if (left <= 0) return DeadlineExceeded("recv deadline expired");
      wait = static_cast<int>(left);
    }
    const int ready = PollFor(fd_, POLLIN, wait);
    if (ready < 0) return Errno("recv poll");
    if (ready == 0) return DeadlineExceeded("recv deadline expired");
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      if (received) *received = got;
      continue;
    }
    if (r == 0) return Unavailable("connection closed by peer");
    if (errno == EINTR || errno == EAGAIN) continue;
    return Errno("recv");
  }
  return Status::Ok();
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& o) noexcept : fd_(o.fd_), bound_(o.bound_) {
  o.fd_ = -1;
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    bound_ = o.bound_;
    o.fd_ = -1;
  }
  return *this;
}

Result<Listener> Listener::Bind(const Address& addr, int backlog) {
  struct sockaddr_storage ss;
  socklen_t len = 0;
  if (addr.family == Address::Family::kUnix)
    ::unlink(addr.path.c_str());  // a stale socket file blocks bind
  HS_RETURN_IF_ERROR(FillSockaddr(addr, &ss, &len));
  const int domain =
      addr.family == Address::Family::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Listener listener;
  listener.fd_ = fd;
  listener.bound_ = addr;
  if (domain == AF_INET) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&ss), len) != 0)
    return Errno("bind " + addr.ToString());
  if (::listen(fd, backlog) != 0) return Errno("listen " + addr.ToString());
  if (domain == AF_INET) {
    // Report the kernel-resolved port so callers may bind port 0.
    struct sockaddr_in bound;
    socklen_t blen = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                      &blen) == 0)
      listener.bound_.port = ntohs(bound.sin_port);
  }
  return listener;
}

Result<Socket> Listener::Accept(int timeout_ms) {
  if (fd_ < 0) return Unavailable("accept on closed listener");
  const int ready = PollFor(fd_, POLLIN, timeout_ms);
  if (ready < 0) return Errno("accept poll");
  if (ready == 0) return DeadlineExceeded("no connection within wait");
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return Errno("accept");
  return Socket(fd);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (bound_.family == Address::Family::kUnix && !bound_.path.empty())
      ::unlink(bound_.path.c_str());
  }
}

}  // namespace hardsnap::net
