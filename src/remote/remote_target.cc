#include "remote/remote_target.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "snapshot/snapshot.h"

namespace hardsnap::remote {

RemoteTarget::RemoteTarget(net::FrameStream stream, HelloInfo hello,
                           RemoteTargetOptions options)
    : stream_(std::move(stream)),
      hello_(std::move(hello)),
      options_(std::move(options)),
      name_("remote-" + hello_.target_name),
      kind_(static_cast<bus::TargetKind>(hello_.target_kind)) {}

Result<std::unique_ptr<RemoteTarget>> RemoteTarget::Connect(
    const net::Address& addr, RemoteTargetOptions options) {
  Status last = Unavailable("no connect attempt made");
  int backoff = std::max(1, options.connect_backoff_ms);
  for (unsigned attempt = 0; attempt < options.connect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, options.connect_backoff_cap_ms);
    }

    auto socket = net::Socket::Connect(addr, options.connect_timeout_ms);
    if (!socket.ok()) {
      last = socket.status();
      if (IsTransientFailure(last.code())) continue;
      return last;
    }
    net::FrameStream stream(std::move(socket).value());

    Request hello;
    hello.op = Op::kHello;
    hello.client_name = options.client_name;
    const Status sent =
        stream.Send(bus::Frame::kCommand, 1,
                    static_cast<uint32_t>(Op::kHello), EncodeRequest(hello));
    if (!sent.ok()) {
      last = sent;
      continue;
    }
    auto msg = stream.Recv(options.rpc_timeout_ms);
    if (!msg.ok()) {
      last = msg.status();
      if (IsTransientFailure(last.code())) continue;
      return last;
    }
    auto reply = DecodeReply(msg.value().payload);
    if (!reply.ok()) {
      last = reply.status();
      continue;
    }
    if (reply.value().code != StatusCode::kOk) {
      // A draining or full server refuses with kUnavailable — transient,
      // worth the backoff (the restart window). A version mismatch is
      // permanent and fails immediately.
      const Status refused{reply.value().code, reply.value().message};
      if (IsTransientFailure(refused.code())) {
        last = refused;
        continue;
      }
      return refused;
    }
    auto info = DecodeHelloInfo(reply.value().blob);
    if (!info.ok()) {
      last = info.status();
      continue;
    }
    if (info.value().state_format_version != snapshot::kStateFormatVersion)
      return FailedPrecondition(
          "server speaks state format " +
          std::to_string(info.value().state_format_version) + ", client " +
          std::to_string(snapshot::kStateFormatVersion));

    const uint32_t caps = info.value().capabilities;
    std::unique_ptr<RemoteTarget> target;
    if ((caps & kCapSlots) && (caps & kCapDeltaSnapshots))
      target.reset(new RemoteSlotTarget(std::move(stream),
                                        std::move(info).value(), options));
    else if (caps & kCapDeltaSnapshots)
      target.reset(new RemoteDeltaTarget(std::move(stream),
                                         std::move(info).value(), options));
    else
      target.reset(new RemoteTarget(std::move(stream),
                                    std::move(info).value(), options));
    target->irq_ = reply.value().irq_vector;
    return target;
  }
  return Unavailable("connect to " + addr.ToString() + " failed after " +
                     std::to_string(options.connect_attempts) +
                     " attempts; last error: " + last.ToString());
}

Status RemoteTarget::Lost() const {
  return Unavailable("remote target '" + name_ + "' connection lost");
}

void RemoteTarget::MarkDead(const Status& why) {
  if (!alive_) return;
  alive_ = false;
  LogWarn("remote target '" + name_ + "' connection lost: " + why.ToString());
  stream_.socket().Close();
}

Result<Reply> RemoteTarget::Call(Request request) {
  if (!alive_) return Lost();

  ++seq_;
  const Op op = request.op;
  const Status sent = stream_.Send(bus::Frame::kCommand, seq_,
                                   static_cast<uint32_t>(op),
                                   EncodeRequest(request));
  if (!sent.ok()) {
    MarkDead(sent);
    return sent;
  }
  auto msg = stream_.Recv(options_.rpc_timeout_ms);
  if (!msg.ok()) {
    MarkDead(msg.status());
    return msg.status();
  }
  if (msg.value().kind != bus::Frame::kReplyOk &&
      msg.value().kind != bus::Frame::kReplyErr) {
    const Status bad = DataLoss("expected a reply frame, got kind " +
                                std::to_string(msg.value().kind));
    MarkDead(bad);
    return bad;
  }
  if (msg.value().seq != seq_) {
    const Status bad = DataLoss(
        "reply out of sequence: expected " + std::to_string(seq_) + ", got " +
        std::to_string(msg.value().seq));
    MarkDead(bad);
    return bad;
  }
  auto reply = DecodeReply(msg.value().payload);
  if (!reply.ok()) {
    MarkDead(reply.status());
    return reply.status();
  }

  // Mirror the side-band state the reply piggybacks (header comment: the
  // target only moves in response to our ops, so this stays exact).
  irq_ = reply.value().irq_vector;
  const Duration elapsed =
      Duration::Picos(static_cast<int64_t>(reply.value().elapsed_ps));
  const Duration run =
      Duration::Picos(static_cast<int64_t>(reply.value().run_ps));
  clock_.Advance(elapsed);
  switch (op) {
    case Op::kBatch:
      stats_.run_time += run;
      stats_.io_time += elapsed - run;
      break;
    case Op::kSaveState:
    case Op::kRestoreState:
    case Op::kStateHash:
    case Op::kSaveDelta:
    case Op::kRestoreDelta:
    case Op::kSlotSave:
    case Op::kSlotRestore:
      stats_.snapshot_time += elapsed;
      break;
    default:
      stats_.io_time += elapsed;
      break;
  }
  ++counters_.rpcs;
  counters_.bytes_sent = stream_.bytes_sent();
  counters_.bytes_received = stream_.bytes_received();

  if (reply.value().code != StatusCode::kOk)
    return Status{reply.value().code, reply.value().message};
  return std::move(reply).value();
}

Result<std::vector<uint32_t>> RemoteTarget::FlushCollect() {
  if (pending_.empty()) return std::vector<uint32_t>{};
  Request request;
  request.op = Op::kBatch;
  request.ops = std::move(pending_);
  pending_.clear();
  counters_.ops_shipped += request.ops.size();
  auto reply = Call(std::move(request));
  if (!reply.ok()) return reply.status();
  return std::move(reply).value().read_values;
}

Status RemoteTarget::Flush() { return FlushCollect().status(); }

Result<uint32_t> RemoteTarget::Read32(uint32_t addr) {
  if (!alive_) return Lost();
  pending_.push_back(bus::MmioOp::Read(addr));
  ++stats_.mmio_reads;
  auto reads = FlushCollect();
  if (!reads.ok()) return reads.status();
  if (reads.value().empty())
    return DataLoss("batch reply carried no value for the read");
  return reads.value().back();
}

Status RemoteTarget::Write32(uint32_t addr, uint32_t value) {
  if (!alive_) return Lost();
  pending_.push_back(bus::MmioOp::Write(addr, value));
  ++stats_.mmio_writes;
  if (!options_.coalesce_ops || pending_.size() >= options_.max_pending_ops)
    return Flush();
  return Status::Ok();
}

Status RemoteTarget::Run(uint64_t cycles) {
  if (!alive_) return Lost();
  stats_.cycles_run += cycles;
  if (options_.coalesce_ops && !pending_.empty() &&
      pending_.back().kind == bus::MmioOp::kRun)
    pending_.back().value += cycles;
  else
    pending_.push_back(bus::MmioOp::Run(cycles));
  if (!options_.coalesce_ops) return Flush();
  return Status::Ok();
}

uint32_t RemoteTarget::IrqVector() {
  // The mirror goes stale only while ops sit unflushed; ship them so the
  // answer reflects every operation issued so far. A flush failure leaves
  // the last known vector — the error resurfaces on the next fallible op.
  if (alive_ && !pending_.empty()) (void)Flush();
  return irq_;
}

Result<Reply> RemoteTarget::FlushAndCall(Op op, std::vector<uint8_t> blob,
                                         uint32_t slot) {
  HS_RETURN_IF_ERROR(Flush());
  Request request;
  request.op = op;
  request.blob = std::move(blob);
  request.slot = slot;
  return Call(std::move(request));
}

Result<std::vector<uint8_t>> RemoteTarget::SaveRpc(Op op, uint32_t slot) {
  HS_ASSIGN_OR_RETURN(Reply reply, FlushAndCall(op, {}, slot));
  ++stats_.snapshots_saved;
  stats_.snapshot_bytes_copied += reply.blob.size();
  return std::move(reply.blob);
}

Status RemoteTarget::RestoreRpc(Op op, std::vector<uint8_t> blob,
                                uint32_t slot) {
  const size_t shipped = blob.size();
  HS_RETURN_IF_ERROR(FlushAndCall(op, std::move(blob), slot).status());
  ++stats_.snapshots_restored;
  stats_.snapshot_bytes_copied += shipped;
  return Status::Ok();
}

Status RemoteTarget::ResetHardware() {
  return FlushAndCall(Op::kReset).status();
}

Result<sim::HardwareState> RemoteTarget::SaveState() {
  HS_ASSIGN_OR_RETURN(auto blob, SaveRpc(Op::kSaveState));
  return snapshot::DeserializeState(blob);
}

Status RemoteTarget::RestoreState(const sim::HardwareState& state) {
  return RestoreRpc(Op::kRestoreState, snapshot::SerializeState(state));
}

Result<uint64_t> RemoteTarget::StateHash() {
  HS_ASSIGN_OR_RETURN(Reply reply, FlushAndCall(Op::kStateHash));
  return reply.value64;
}

Result<std::vector<uint32_t>> RemoteTarget::ExecuteMmio(
    const std::vector<bus::MmioOp>& ops) {
  if (!alive_) return Lost();
  // Ship anything already queued first so program order is preserved,
  // then the caller's batch as its own RPC (its reads map 1:1).
  HS_RETURN_IF_ERROR(Flush());
  for (const bus::MmioOp& op : ops) {
    switch (op.kind) {
      case bus::MmioOp::kRead: ++stats_.mmio_reads; break;
      case bus::MmioOp::kWrite: ++stats_.mmio_writes; break;
      case bus::MmioOp::kRun: stats_.cycles_run += op.value; break;
      default: break;
    }
  }
  Request request;
  request.op = Op::kBatch;
  request.ops = ops;
  counters_.ops_shipped += ops.size();
  auto reply = Call(std::move(request));
  if (!reply.ok()) return reply.status();
  return std::move(reply).value().read_values;
}

Result<ServerStats> RemoteTarget::FetchServerStats() {
  HS_ASSIGN_OR_RETURN(Reply reply, FlushAndCall(Op::kStats));
  return DecodeServerStats(reply.blob);
}

Result<sim::StateDelta> RemoteDeltaTarget::SaveStateDelta() {
  HS_ASSIGN_OR_RETURN(auto blob, SaveRpc(Op::kSaveDelta));
  return snapshot::DeserializeStateDelta(blob);
}

Status RemoteDeltaTarget::RestoreStateDelta(const sim::StateDelta& delta) {
  return RestoreRpc(Op::kRestoreDelta, snapshot::SerializeStateDelta(delta));
}

}  // namespace hardsnap::remote
