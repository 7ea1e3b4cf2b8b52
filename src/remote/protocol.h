// hardsnapd RPC protocol: request/reply payloads carried inside the
// net::FrameStream message framing.
//
// A request is one framed message: kind = bus::Frame::kCommand, the
// opcode in the frame's addr field, and the op-specific payload encoded
// here. Every request produces exactly one reply frame (kReplyOk or
// kReplyErr) echoing the request's sequence number, so clients may
// pipeline requests and match replies by seq.
//
// Every reply — including errors — carries the target's current irq
// vector and the virtual time that elapsed on the target during the
// operation. The client mirrors both locally, which is what lets it
// answer IrqVector()/clock() without a round trip: target state only
// advances in response to client operations, so the mirror is exact
// between RPCs.
//
// Each payload's fields are listed once, in an Xfer template that both
// directions run (common/serde.h). Decoding is defensive (the
// serde_robustness tests fuzz it): every declared length is validated
// against the bytes actually present before anything is allocated, unknown
// enum values are rejected, and trailing bytes fail the decode. A malformed
// request must never crash the server or oversize an allocation — the
// session is closed with a logged error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bus/batch_support.h"
#include "common/status.h"

namespace hardsnap::remote {

// "HSRP" — rejected hellos fail loudly when something that is not a
// hardsnapd client dials the port.
inline constexpr uint32_t kProtocolMagic = 0x48535250;
inline constexpr uint8_t kProtocolVersion = 1;

enum class Op : uint32_t {
  kHello = 1,         // handshake; reply blob = HelloInfo
  kBatch = 2,         // vector of MmioOps; reply carries read values
  kReset = 3,         // ResetHardware
  kSaveState = 4,     // reply blob = HSSS state
  kRestoreState = 5,  // request blob = HSSS state
  kStateHash = 6,     // reply value64 = content hash
  kSaveDelta = 7,     // reply blob = HSSD delta
  kRestoreDelta = 8,  // request blob = HSSD delta
  kSlotSave = 9,      // SaveLiveToSlot(slot)
  kSlotRestore = 10,  // RestoreLiveFromSlot(slot)
  kStats = 11,        // reply blob = ServerStats
};

const char* OpName(Op op);

// HelloInfo::capabilities bits — which optional bus interfaces the
// session's target implements (discovered server-side via dynamic_cast,
// re-created client-side as the RemoteTarget subtype).
inline constexpr uint32_t kCapDeltaSnapshots = 1u << 0;
inline constexpr uint32_t kCapSlots = 1u << 1;

struct Request {
  Op op = Op::kHello;
  uint32_t magic = kProtocolMagic;   // kHello
  uint8_t version = kProtocolVersion;  // kHello
  std::string client_name;           // kHello
  std::vector<bus::MmioOp> ops;      // kBatch
  uint32_t slot = 0;                 // kSlotSave / kSlotRestore
  std::vector<uint8_t> blob;         // kRestoreState / kRestoreDelta
};

std::vector<uint8_t> EncodeRequest(const Request& req);
Result<Request> DecodeRequest(Op op, const std::vector<uint8_t>& payload);

// What a session's target looks like, sent in the hello reply blob.
struct HelloInfo {
  std::string target_name;
  uint8_t target_kind = 0;       // bus::TargetKind
  uint32_t capabilities = 0;     // kCap* bits
  uint32_t num_slots = 0;        // 0 unless kCapSlots
  uint8_t state_format_version = 0;  // snapshot::kStateFormatVersion
  uint64_t shape_digest = 0;     // snapshot::StateShapeDigest of the design
};

std::vector<uint8_t> EncodeHelloInfo(const HelloInfo& info);
Result<HelloInfo> DecodeHelloInfo(const std::vector<uint8_t>& payload);

struct Reply {
  // Device-level status of the operation. Transport-level failures never
  // appear here — they surface as socket/framing errors.
  StatusCode code = StatusCode::kOk;
  std::string message;

  uint32_t irq_vector = 0;  // target irq wires after the operation
  uint64_t elapsed_ps = 0;  // virtual time the operation advanced
  uint64_t run_ps = 0;      // portion of elapsed_ps charged by Run ops

  uint64_t value64 = 0;               // kStateHash
  std::vector<uint32_t> read_values;  // kBatch
  std::vector<uint8_t> blob;          // kSaveState / kSaveDelta / kStats
};

std::vector<uint8_t> EncodeReply(const Reply& reply);
Result<Reply> DecodeReply(const std::vector<uint8_t>& payload);

// Per-server counters, served by the kStats RPC.
struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_refused = 0;   // refused while draining
  uint64_t sessions_closed = 0;
  uint64_t protocol_errors = 0;    // malformed frames / requests
  uint64_t rpcs = 0;
  uint64_t batched_ops = 0;        // MmioOps carried inside kBatch RPCs
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t rpc_wall_micros = 0;    // summed serve latency (host wall time)
};

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats);
Result<ServerStats> DecodeServerStats(const std::vector<uint8_t>& payload);

}  // namespace hardsnap::remote
