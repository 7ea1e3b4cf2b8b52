// Blocking stream sockets with wall-clock deadlines.
//
// The modeled links under the analysis (bus/channel.h, bus/link.h) charge
// VIRTUAL time; this layer is the real transport underneath a remote
// target, so its deadlines are real milliseconds enforced with poll().
// Both families (TCP and Unix-domain) present the same byte-stream
// interface; everything above (net/frame_stream.h, src/remote) is
// family-agnostic.
//
// Error mapping, chosen so the remote target plugs straight into the
// existing transient-failure machinery (IsTransientFailure /
// IsInfrastructureFailure in common/status.h):
//   * connection refused / reset / EOF  -> kUnavailable
//   * deadline expired                  -> kDeadlineExceeded
// Both make the campaign layer re-provision the worker's slice instead of
// failing the campaign.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "net/address.h"

namespace hardsnap::net {

// A connected byte stream. Movable, closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // Connect with a bounded wait (non-blocking connect + poll).
  static Result<Socket> Connect(const Address& addr, int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Write exactly `n` bytes (handles partial writes and EINTR). A peer
  // that went away surfaces as kUnavailable, never SIGPIPE.
  Status SendAll(const void* data, size_t n);

  // Read exactly `n` bytes, waiting at most `timeout_ms` in total.
  // timeout_ms < 0 waits forever. A clean EOF before the first byte and a
  // mid-read EOF both return kUnavailable (the stream protocol never
  // legitimately ends inside a message). `received`, when given, reports
  // how many bytes actually arrived — on a deadline it distinguishes an
  // idle peer (0) from a stream stalled mid-message (> 0).
  Status RecvAll(void* data, size_t n, int timeout_ms,
                 size_t* received = nullptr);

  void Close();

 private:
  int fd_ = -1;
};

// A bound, listening socket. Unix listeners unlink their path on Close.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& o) noexcept;
  Listener& operator=(Listener&& o) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static Result<Listener> Bind(const Address& addr, int backlog = 16);

  // Waits up to `timeout_ms` for a connection; kDeadlineExceeded on
  // timeout so accept loops can poll a stop flag between waits.
  Result<Socket> Accept(int timeout_ms);

  // The bound address with the kernel-resolved port (TCP port 0 binds).
  const Address& bound() const { return bound_; }
  bool valid() const { return fd_ >= 0; }

  void Close();

 private:
  int fd_ = -1;
  Address bound_;
};

}  // namespace hardsnap::net
