#include "remote/server.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "snapshot/snapshot.h"

namespace hardsnap::remote {

namespace {

void SetStatus(Reply* reply, const Status& status) {
  reply->code = status.code();
  reply->message = status.message();
}

// Hands `result`'s value to `use`, or puts its error in the reply.
template <class T, class Use>
void Answer(Reply* reply, Result<T> result, Use use) {
  if (result.ok())
    use(std::move(result).value());
  else
    SetStatus(reply, result.status());
}

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TargetServer::TargetServer(net::Listener listener, TargetFactory factory,
                           TargetServerOptions options)
    : listener_(std::move(listener)),
      bound_(listener_.bound()),
      factory_(std::move(factory)),
      options_(std::move(options)) {}

Result<std::unique_ptr<TargetServer>> TargetServer::Start(
    const net::Address& listen, TargetFactory factory,
    TargetServerOptions options) {
  if (!factory) return InvalidArgument("target server needs a factory");
  auto listener = net::Listener::Bind(listen);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<TargetServer> server(new TargetServer(
      std::move(listener).value(), std::move(factory), std::move(options)));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  LogInfo(server->options_.name + ": serving on " +
          server->bound_.ToString());
  return server;
}

TargetServer::~TargetServer() { Stop(); }

void TargetServer::Drain() {
  if (!draining_.exchange(true))
    LogInfo(options_.name + ": draining — refusing new sessions");
}

void TargetServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  Drain();
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::map<uint64_t, std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
    finished_.clear();
  }
  for (auto& [id, t] : sessions) t.join();
  LogInfo(options_.name + ": stopped");
}

ServerStats TargetServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t TargetServer::session_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void TargetServer::JoinFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = sessions_.find(id);
      done.push_back(std::move(it->second));
      sessions_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& t : done) t.join();
}

void TargetServer::EndSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.sessions_closed;
  finished_.push_back(session_id);
  active_sessions_.fetch_sub(1);
}

void TargetServer::Refuse(net::Socket socket, const std::string& why) {
  Reply reply;
  SetStatus(&reply, Unavailable(why));
  net::FrameStream stream(std::move(socket));
  // Best-effort: the client maps either this reply or a bare close to
  // kUnavailable and takes the fail-over path.
  (void)stream.Send(bus::Frame::kReplyErr, 0,
                    static_cast<uint32_t>(Op::kHello), EncodeReply(reply));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.sessions_refused;
}

void TargetServer::AcceptLoop() {
  while (!stopping_.load()) {
    JoinFinished();
    auto socket = listener_.Accept(options_.accept_poll_ms);
    if (!socket.ok()) {
      if (socket.status().code() == StatusCode::kDeadlineExceeded) continue;
      if (stopping_.load()) break;
      LogWarn(options_.name + ": accept failed: " +
              socket.status().ToString());
      if (socket.status().code() == StatusCode::kUnavailable) break;
      continue;
    }
    if (draining_.load()) {
      Refuse(std::move(socket).value(), "server draining");
      continue;
    }
    if (active_sessions_.load() >= options_.max_sessions) {
      Refuse(std::move(socket).value(),
             "server full (" + std::to_string(options_.max_sessions) +
                 " sessions)");
      continue;
    }
    active_sessions_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = next_session_id_++;
    ++stats_.sessions_accepted;
    sessions_.emplace(
        id, std::thread([this, id, sock = std::make_shared<net::Socket>(
                                       std::move(socket).value())]() mutable {
          RunSession(std::move(*sock), id);
        }));
  }
}

void TargetServer::RunSession(net::Socket socket, uint64_t session_id) {
  const std::string tag =
      options_.name + " session " + std::to_string(session_id);
  net::FrameStream stream(std::move(socket));

  auto target_or = factory_();
  if (!target_or.ok()) {
    LogError(tag + ": target creation failed: " +
             target_or.status().ToString());
    Reply reply;
    SetStatus(&reply, target_or.status());
    (void)stream.Send(bus::Frame::kReplyErr, 0,
                      static_cast<uint32_t>(Op::kHello), EncodeReply(reply));
    EndSession(session_id);
    return;
  }
  std::unique_ptr<bus::HardwareTarget> owned = std::move(target_or).value();
  const Hosted target{owned.get(),
                      dynamic_cast<bus::DeltaSnapshotter*>(owned.get()),
                      dynamic_cast<bus::SlotSnapshotter*>(owned.get())};
  LogInfo(tag + ": open (target " + owned->name() + ")");

  std::string close_reason = "drained";
  // Malformed traffic (bad CRC, forged length, stalled stream, undecodable
  // request): log it and end THIS session only.
  auto protocol_error = [&](const std::string& why) {
    close_reason = why;
    LogError(tag + ": " + why);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.protocol_errors;
  };
  uint64_t prev_sent = 0, prev_received = 0;
  while (!draining_.load()) {
    auto msg = stream.Recv(options_.idle_poll_ms, options_.io_timeout_ms);
    if (!msg.ok()) {
      const StatusCode code = msg.status().code();
      if (code == StatusCode::kDeadlineExceeded) continue;  // idle poll
      if (code == StatusCode::kUnavailable)
        close_reason = "peer closed";
      else
        protocol_error("protocol error: " + msg.status().ToString());
      break;
    }
    if (msg.value().kind != bus::Frame::kCommand) {
      protocol_error("protocol error: unexpected frame kind " +
                     std::to_string(msg.value().kind));
      break;
    }

    const uint64_t serve_start = WallMicros();
    const Op op = static_cast<Op>(msg.value().op);
    auto request = DecodeRequest(op, msg.value().payload);
    if (!request.ok()) {
      protocol_error("malformed " + std::string(OpName(op)) +
                     " request: " + request.status().ToString());
      break;
    }
    Reply reply;
    Serve(target, request.value(), &reply);

    const uint8_t kind = reply.code == StatusCode::kOk
                             ? bus::Frame::kReplyOk
                             : bus::Frame::kReplyErr;
    const Status sent =
        stream.Send(kind, msg.value().seq, msg.value().op,
                    EncodeReply(reply));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rpcs;
      stats_.batched_ops += request.value().ops.size();
      stats_.rpc_wall_micros += WallMicros() - serve_start;
      stats_.bytes_received += stream.bytes_received() - prev_received;
      stats_.bytes_sent += stream.bytes_sent() - prev_sent;
      prev_received = stream.bytes_received();
      prev_sent = stream.bytes_sent();
    }
    if (!sent.ok()) {
      close_reason = "send failed: " + sent.ToString();
      break;
    }
  }

  LogInfo(tag + ": closed (" + close_reason + ")");
  EndSession(session_id);
}

void TargetServer::Serve(const Hosted& hosted, const Request& request,
                         Reply* reply) {
  bus::HardwareTarget* target = hosted.target;
  const Duration clock_before = target->clock().now();
  const Duration run_before = target->stats().run_time;

  switch (request.op) {
    case Op::kHello: {
      if (request.version != kProtocolVersion) {
        SetStatus(reply,
                  FailedPrecondition(
                      "protocol version mismatch: client " +
                      std::to_string(request.version) + ", server " +
                      std::to_string(kProtocolVersion)));
        break;
      }
      HelloInfo info;
      info.target_name = target->name();
      info.target_kind = static_cast<uint8_t>(target->kind());
      if (hosted.delta) info.capabilities |= kCapDeltaSnapshots;
      if (hosted.slots) {
        info.capabilities |= kCapSlots;
        info.num_slots = hosted.slots->NumSlots();
      }
      info.state_format_version = snapshot::kStateFormatVersion;
      info.shape_digest = options_.shape_digest;
      reply->blob = EncodeHelloInfo(info);
      break;
    }
    case Op::kBatch:
      Answer(reply, bus::ExecuteMmioOps(target, request.ops),
             [&](std::vector<uint32_t> reads) {
               reply->read_values = std::move(reads);
             });
      break;
    case Op::kReset:
      SetStatus(reply, target->ResetHardware());
      break;
    case Op::kSaveState:
      Answer(reply, target->SaveState(), [&](const sim::HardwareState& st) {
        reply->blob = snapshot::SerializeState(st);
      });
      break;
    case Op::kRestoreState:
      Answer(reply, snapshot::DeserializeState(request.blob),
             [&](const sim::HardwareState& st) {
               SetStatus(reply, target->RestoreState(st));
             });
      break;
    case Op::kStateHash:
      Answer(reply, target->StateHash(),
             [&](uint64_t hash) { reply->value64 = hash; });
      break;
    case Op::kSaveDelta:
    case Op::kRestoreDelta:
      if (!hosted.delta)
        SetStatus(reply, Unimplemented("target has no delta snapshots"));
      else if (request.op == Op::kSaveDelta)
        Answer(reply, hosted.delta->SaveStateDelta(),
               [&](const sim::StateDelta& d) {
                 reply->blob = snapshot::SerializeStateDelta(d);
               });
      else
        Answer(reply, snapshot::DeserializeStateDelta(request.blob),
               [&](const sim::StateDelta& d) {
                 SetStatus(reply, hosted.delta->RestoreStateDelta(d));
               });
      break;
    case Op::kSlotSave:
    case Op::kSlotRestore:
      if (!hosted.slots)
        SetStatus(reply, Unimplemented("target has no snapshot slots"));
      else
        SetStatus(reply, request.op == Op::kSlotSave
                             ? hosted.slots->SaveLiveToSlot(request.slot)
                             : hosted.slots->RestoreLiveFromSlot(request.slot));
      break;
    case Op::kStats:
      reply->blob = EncodeServerStats(stats());
      break;
    default:
      SetStatus(reply, Unimplemented("unknown opcode"));
      break;
  }

  reply->elapsed_ps =
      static_cast<uint64_t>((target->clock().now() - clock_before).picos());
  reply->run_ps = static_cast<uint64_t>(
      (target->stats().run_time - run_before).picos());
  reply->irq_vector = target->IrqVector();
}

}  // namespace hardsnap::remote
