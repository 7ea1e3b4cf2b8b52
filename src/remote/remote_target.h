// RemoteTarget: a bus::HardwareTarget whose hardware lives behind a
// hardsnapd server.
//
// The whole point of this client is to make a NETWORKED target usable by
// code written for in-process ones — the VM calls Run(1) per firmware
// instruction, and a naive one-RPC-per-call client would pay a socket
// round trip for each. Two mechanisms close the gap:
//
//   * Op coalescing (on by default): Write32 and Run enqueue locally and
//     return immediately; consecutive Runs merge into one op. The queue
//     flushes as a single kBatch RPC the moment something needs an
//     answer — a Read32 (whose value rides the same round trip), a
//     snapshot operation, or an explicit Flush(). Firmware that polls a
//     device register costs ~1 round trip per poll instead of one per
//     instruction. Semantics caveat: a device-level error from a
//     deferred Write/Run surfaces at the operation that triggered the
//     flush, not at the call that enqueued it (set coalesce_ops=false
//     for per-op attribution at per-op round-trip cost).
//   * Mirrored side-band state: every reply carries the target's irq
//     vector and the virtual time the operation advanced. The target's
//     state only moves in response to THIS client's operations (sessions
//     are isolated), so the local mirror is exact between RPCs and
//     IrqVector()/clock() never cost a round trip.
//
// Failure model: any transport-level failure (send, recv, CRC, deadline)
// marks the target dead — responsive() turns false and every subsequent
// operation fails fast with kUnavailable. That is precisely what the
// campaign layer's IsInfrastructureFailure fail-over path expects: the
// worker abandons its slice, Connect()s a fresh session (bounded
// retry/backoff rides out a server restart) and catches up by seed
// replay. There is no transparent mid-session reconnect — a new session
// means a fresh server-side target, so hiding the loss would silently
// reset hardware state under the caller.
//
// Capability mapping: Connect returns the subtype matching the hello's
// capability bits, so the dynamic_cast discovery used everywhere
// (DeltaSnapshotter, SlotSnapshotter, MmioBatcher) works unchanged
// across the wire.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/batch_support.h"
#include "bus/delta_support.h"
#include "bus/slot_support.h"
#include "bus/target.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "net/address.h"
#include "net/frame_stream.h"
#include "remote/protocol.h"
#include "sim/simulator.h"

namespace hardsnap::remote {

struct RemoteTargetOptions {
  std::string client_name = "hardsnap";

  int connect_timeout_ms = 2000;
  // Bounded retry/backoff around the whole connect+hello exchange, sized
  // to ride out a server restart (~attempts * backoff_cap of patience).
  unsigned connect_attempts = 20;
  int connect_backoff_ms = 50;     // doubles per attempt, capped below
  int connect_backoff_cap_ms = 500;

  // Deadline for one RPC round trip (applies per message segment).
  int rpc_timeout_ms = 30000;

  // Defer writes/runs and ship them with the next read (header comment).
  bool coalesce_ops = true;

  // Flush backstop so pathological write-only firmware cannot grow the
  // queue without bound.
  size_t max_pending_ops = 4096;
};

// Client-side transport counters (cumulative per connection).
struct ClientCounters {
  uint64_t rpcs = 0;
  uint64_t ops_shipped = 0;   // MmioOps carried in kBatch RPCs
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

class RemoteTarget : public bus::HardwareTarget, public bus::MmioBatcher {
 public:
  // Dials `addr`, performs the hello handshake and returns the subtype
  // matching the server target's capabilities. Retries transient connect
  // failures with bounded backoff; permanent rejections (version or
  // state-format mismatch) fail immediately.
  static Result<std::unique_ptr<RemoteTarget>> Connect(
      const net::Address& addr, RemoteTargetOptions options = {});

  bus::TargetKind kind() const override { return kind_; }
  const std::string& name() const override { return name_; }

  Result<uint32_t> Read32(uint32_t addr) override;
  Status Write32(uint32_t addr, uint32_t value) override;
  Status Run(uint64_t cycles) override;
  uint32_t IrqVector() override;
  Status ResetHardware() override;

  Result<sim::HardwareState> SaveState() override;
  Status RestoreState(const sim::HardwareState& state) override;
  Result<uint64_t> StateHash() override;

  bool responsive() const override { return alive_; }

  const VirtualClock& clock() const override { return clock_; }
  const bus::TargetStats& stats() const override { return stats_; }

  // bus::MmioBatcher: `ops` (after any pending coalesced ops) as one RPC.
  Result<std::vector<uint32_t>> ExecuteMmio(
      const std::vector<bus::MmioOp>& ops) override;

  // Ship any coalesced ops now. No-op on an empty queue.
  Status Flush();

  // The server's kStats RPC (flushes first).
  Result<ServerStats> FetchServerStats();

  const HelloInfo& hello() const { return hello_; }
  const ClientCounters& counters() const { return counters_; }
  const RemoteTargetOptions& options() const { return options_; }

 protected:
  RemoteTarget(net::FrameStream stream, HelloInfo hello,
               RemoteTargetOptions options);

  // A snapshot save / restore RPC (after flushing coalesced ops): counts
  // the snapshot and the payload bytes that crossed the wire.
  Result<std::vector<uint8_t>> SaveRpc(Op op, uint32_t slot = 0);
  Status RestoreRpc(Op op, std::vector<uint8_t> blob, uint32_t slot = 0);

 private:
  // One request/reply exchange. Transport failures mark the target dead;
  // a device-level error comes back as that operation's Status with the
  // connection intact.
  Result<Reply> Call(Request request);
  // Ships any coalesced ops, then makes one `op` RPC carrying `blob` (a
  // restore's payload) or `slot` (a slot op).
  Result<Reply> FlushAndCall(Op op, std::vector<uint8_t> blob = {},
                             uint32_t slot = 0);

  Result<std::vector<uint32_t>> FlushCollect();
  void MarkDead(const Status& why);
  // The kUnavailable every operation fails with once the target is dead.
  Status Lost() const;

  net::FrameStream stream_;
  HelloInfo hello_;
  RemoteTargetOptions options_;
  std::string name_;
  bus::TargetKind kind_ = bus::TargetKind::kSimulator;

  bool alive_ = true;
  uint32_t seq_ = 0;
  uint32_t irq_ = 0;  // mirror: last reply's piggybacked vector
  std::vector<bus::MmioOp> pending_;

  VirtualClock clock_;  // mirror of the server target's clock
  bus::TargetStats stats_;
  ClientCounters counters_;
};

// Server target with incremental snapshots (hosted SimulatorTarget).
class RemoteDeltaTarget : public RemoteTarget, public bus::DeltaSnapshotter {
 public:
  Result<sim::StateDelta> SaveStateDelta() override;
  Status RestoreStateDelta(const sim::StateDelta& delta) override;

 protected:
  using RemoteTarget::RemoteTarget;
  friend class RemoteTarget;
};

// Server target with delta snapshots AND device slots (hosted FpgaTarget).
class RemoteSlotTarget final : public RemoteDeltaTarget,
                               public bus::SlotSnapshotter {
 public:
  unsigned NumSlots() const override { return hello().num_slots; }
  Status SaveLiveToSlot(unsigned slot) override {
    return SaveRpc(Op::kSlotSave, slot).status();
  }
  Status RestoreLiveFromSlot(unsigned slot) override {
    return RestoreRpc(Op::kSlotRestore, {}, slot);
  }

 private:
  using RemoteDeltaTarget::RemoteDeltaTarget;
  friend class RemoteTarget;
};

}  // namespace hardsnap::remote
