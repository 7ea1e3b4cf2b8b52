#include "remote/protocol.h"

#include "common/serde.h"

namespace hardsnap::remote {

namespace {

// Bytes one MmioOp occupies on the wire: kind(1) + addr(4) + value(8).
constexpr size_t kMmioOpWireBytes = 13;

// Highest StatusCode value the wire may carry (common/status.h).
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kDataLoss);

template <class Io, RecordOf<Request> T>
void Xfer(Io& io, T& req) {
  switch (req.op) {
    case Op::kHello:
      io.U32(req.magic);
      io.Require(req.magic == kProtocolMagic, "bad hello magic");
      io.U8(req.version);
      io.Str(req.client_name);
      break;
    case Op::kBatch:
      io.List(req.ops, kMmioOpWireBytes, [](auto& io, auto& op) {
        io.U8In(op.kind, bus::MmioOp::kRead, bus::MmioOp::kRun,
                "bad MmioOp kind");
        io.U32(op.addr);
        io.U64(op.value);
      });
      break;
    case Op::kSlotSave:
    case Op::kSlotRestore:
      io.U32(req.slot);
      break;
    case Op::kRestoreState:
    case Op::kRestoreDelta:
      io.Blob(req.blob);
      break;
    case Op::kReset:
    case Op::kSaveState:
    case Op::kStateHash:
    case Op::kSaveDelta:
    case Op::kStats:
      break;  // no payload
    default:
      io.Check([&] {
        return InvalidArgument("unknown request opcode " +
                               std::to_string(static_cast<uint32_t>(req.op)));
      });
  }
}

template <class Io, RecordOf<HelloInfo> T>
void Xfer(Io& io, T& info) {
  io.Str(info.target_name);
  io.U8(info.target_kind);
  io.U32(info.capabilities);
  io.U32(info.num_slots);
  io.U8(info.state_format_version);
  io.U64(info.shape_digest);
}

template <class Io, RecordOf<Reply> T>
void Xfer(Io& io, T& reply) {
  io.U8In(reply.code, 0, kMaxStatusCode, "bad status code");
  io.Str(reply.message);
  io.U32(reply.irq_vector);
  io.U64(reply.elapsed_ps);
  io.U64(reply.run_ps);
  io.U64(reply.value64);
  io.List(reply.read_values, 4, [](auto& io, auto& v) { io.U32(v); });
  io.Blob(reply.blob);
}

template <class Io, RecordOf<ServerStats> T>
void Xfer(Io& io, T& stats) {
  for (auto* field :
       {&stats.sessions_accepted, &stats.sessions_refused,
        &stats.sessions_closed, &stats.protocol_errors, &stats.rpcs,
        &stats.batched_ops, &stats.bytes_received, &stats.bytes_sent,
        &stats.rpc_wall_micros})
    io.U64(*field);
}

template <class T>
std::vector<uint8_t> Encode(const T& rec) {
  ByteWriter w;
  Xfer(w, rec);
  return w.Take();
}

// A declared length the payload cannot hold is a malformed message
// (kInvalidArgument), and the payload must end at its last field.
template <class T>
Result<T> Decode(const std::vector<uint8_t>& payload, const char* what,
                 T rec = {}) {
  ByteReader r(payload, StatusCode::kInvalidArgument);
  Xfer(r, rec);
  HS_RETURN_IF_ERROR(r.Finish(what));
  return rec;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kHello: return "hello";
    case Op::kBatch: return "batch";
    case Op::kReset: return "reset";
    case Op::kSaveState: return "save-state";
    case Op::kRestoreState: return "restore-state";
    case Op::kStateHash: return "state-hash";
    case Op::kSaveDelta: return "save-delta";
    case Op::kRestoreDelta: return "restore-delta";
    case Op::kSlotSave: return "slot-save";
    case Op::kSlotRestore: return "slot-restore";
    case Op::kStats: return "stats";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeRequest(const Request& req) { return Encode(req); }

Result<Request> DecodeRequest(Op op, const std::vector<uint8_t>& payload) {
  Request req;
  req.op = op;
  return Decode(payload, OpName(op), std::move(req));
}

std::vector<uint8_t> EncodeHelloInfo(const HelloInfo& info) {
  return Encode(info);
}

Result<HelloInfo> DecodeHelloInfo(const std::vector<uint8_t>& payload) {
  return Decode<HelloInfo>(payload, "hello-info");
}

std::vector<uint8_t> EncodeReply(const Reply& reply) { return Encode(reply); }

Result<Reply> DecodeReply(const std::vector<uint8_t>& payload) {
  return Decode<Reply>(payload, "reply");
}

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats) {
  return Encode(stats);
}

Result<ServerStats> DecodeServerStats(const std::vector<uint8_t>& payload) {
  return Decode<ServerStats>(payload, "server-stats");
}

}  // namespace hardsnap::remote
