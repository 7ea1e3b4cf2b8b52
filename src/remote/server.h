// TargetServer: the hardsnapd daemon core.
//
// Hosts hardware targets behind a listening socket. Every accepted
// connection becomes a SESSION: a dedicated thread owning a dedicated
// target instance built by the configured factory — per-session isolation,
// so one client's firmware run can never perturb another's hardware state
// and a client that dies mid-run costs nothing but its own target.
//
// Request handling is strictly sequential per session (one target, one
// thread), but clients may PIPELINE: the session reads the next request
// only after replying to the previous one, so requests queue in the
// kernel socket buffer and a client never has to stall between send and
// send. Replies echo the request's sequence number for matching.
//
// Robustness contract (serde_robustness tests): a malformed, truncated or
// forged-length frame closes THAT session with a logged error — the
// server itself and every other session keep running, and nothing is
// allocated for a forged length.
//
// Lifecycle: Drain() makes the server refuse new sessions (refusals get a
// well-formed kUnavailable error reply, which clients map to the
// campaign fail-over path) and tells every session to close once its
// in-flight request has been served. A session's thread is joined by the
// accept loop soon after the session closes, so a long-lived server holds
// threads only for its live sessions. Stop() drains and joins everything.
// hardsnapd wires SIGINT/SIGTERM to exactly this sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bus/delta_support.h"
#include "bus/slot_support.h"
#include "bus/target.h"
#include "common/status.h"
#include "net/frame_stream.h"
#include "net/socket.h"
#include "remote/protocol.h"

namespace hardsnap::remote {

// Builds one fresh target per session. Called on the session thread.
using TargetFactory =
    std::function<Result<std::unique_ptr<bus::HardwareTarget>>()>;

struct TargetServerOptions {
  // Maximum concurrently live sessions (the daemon's configured target
  // count); further connections are refused like a draining server.
  unsigned max_sessions = 8;

  // snapshot::StateShapeDigest of the hosted design, advertised in the
  // hello so clients can reject a daemon serving a different SoC.
  uint64_t shape_digest = 0;

  // How often blocked waits re-check the stop/drain flags.
  int accept_poll_ms = 100;
  int idle_poll_ms = 200;

  // Deadline for the remainder of a message once its header arrived.
  int io_timeout_ms = 30000;

  std::string name = "hardsnapd";
};

class TargetServer {
 public:
  // Binds `listen` and starts the accept loop. The bound address (with
  // the kernel-resolved port for TCP port 0) is available via bound().
  static Result<std::unique_ptr<TargetServer>> Start(
      const net::Address& listen, TargetFactory factory,
      TargetServerOptions options = {});

  ~TargetServer();  // Stop()

  const net::Address& bound() const { return bound_; }

  // Refuse new sessions; let each session finish its in-flight request,
  // then close it. Returns immediately.
  void Drain();

  // Drain, close the listener and join every thread. Idempotent.
  void Stop();

  bool draining() const { return draining_.load(); }
  unsigned active_sessions() const { return active_sessions_.load(); }
  // Session threads not yet joined: the live sessions plus any that closed
  // since the accept loop last polled.
  size_t session_threads() const;
  ServerStats stats() const;

 private:
  TargetServer(net::Listener listener, TargetFactory factory,
               TargetServerOptions options);

  // A session's target and its optional capabilities, looked up once
  // when the session opens.
  struct Hosted {
    bus::HardwareTarget* target;
    bus::DeltaSnapshotter* delta;
    bus::SlotSnapshotter* slots;
  };

  void AcceptLoop();
  void RunSession(net::Socket socket, uint64_t session_id);
  // Counts the session closed and queues its thread for JoinFinished.
  void EndSession(uint64_t session_id);
  // Joins the threads of sessions that have closed.
  void JoinFinished();
  // Serves one decoded request: fills `reply` with the result, or with
  // the device-level error, plus the side-band irq and time fields.
  void Serve(const Hosted& hosted, const Request& request, Reply* reply);
  void Refuse(net::Socket socket, const std::string& why);

  net::Listener listener_;
  net::Address bound_;
  TargetFactory factory_;
  TargetServerOptions options_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<unsigned> active_sessions_{0};

  // Guards sessions_, finished_, stats_, stopped_.
  mutable std::mutex mu_;
  std::map<uint64_t, std::thread> sessions_;  // by session id
  std::vector<uint64_t> finished_;  // closed sessions not yet joined
  ServerStats stats_;
  bool stopped_ = false;
  uint64_t next_session_id_ = 1;

  std::thread accept_thread_;
};

}  // namespace hardsnap::remote
