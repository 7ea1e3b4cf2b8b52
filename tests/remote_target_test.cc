// Remote target subsystem: address parsing, the framed RPC protocol, and
// the TargetServer/RemoteTarget pair end-to-end over loopback TCP.
//
// The load-bearing property is EQUIVALENCE: a RemoteTarget must be
// indistinguishable from the in-process target it fronts — same read
// values, same state hashes, same virtual clock, same irq vector — so
// that everything written against bus::HardwareTarget (fuzzer, symex,
// campaigns) works unmodified over the wire. The robustness half checks
// the server's contract: malformed, truncated or forged-length frames
// close the offending session with a logged error and never disturb the
// server or its other sessions.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bus/batch_support.h"
#include "bus/delta_support.h"
#include "bus/link.h"
#include "bus/sim_target.h"
#include "bus/slot_support.h"
#include "common/crc32.h"
#include "net/address.h"
#include "net/frame_stream.h"
#include "net/socket.h"
#include "periph/periph.h"
#include "remote/protocol.h"
#include "remote/remote_target.h"
#include "remote/server.h"
#include "rtl/elaborate.h"
#include "snapshot/snapshot.h"

namespace hardsnap::remote {
namespace {

using namespace periph;

rtl::Design& Soc() {
  static rtl::Design* d = [] {
    auto r = rtl::CompileVerilog(BuildSoc(DefaultCorpus()), "soc");
    HS_CHECK_MSG(r.ok(), r.status().ToString());
    return new rtl::Design(std::move(r).value());
  }();
  return *d;
}

TargetFactory SimFactory() {
  return []() -> Result<std::unique_ptr<bus::HardwareTarget>> {
    auto t = bus::SimulatorTarget::Create(Soc());
    if (!t.ok()) return t.status();
    return std::unique_ptr<bus::HardwareTarget>(std::move(t).value());
  };
}

std::unique_ptr<TargetServer> StartServer(TargetServerOptions options = {}) {
  auto addr = net::Address::Parse("tcp:127.0.0.1:0");
  HS_CHECK(addr.ok());
  auto server = TargetServer::Start(addr.value(), SimFactory(), options);
  HS_CHECK_MSG(server.ok(), server.status().ToString());
  return std::move(server).value();
}

// Short backoff so failure-path tests don't sit in retry loops.
RemoteTargetOptions FastOptions() {
  RemoteTargetOptions o;
  o.connect_attempts = 3;
  o.connect_backoff_ms = 10;
  o.connect_backoff_cap_ms = 20;
  return o;
}

uint32_t TimerAddr(uint32_t reg) { return (0u << 8) | reg; }

// --- net::Address ----------------------------------------------------------

TEST(AddressTest, ParsesTcpAndUnixSpecs) {
  auto tcp = net::Address::Parse("tcp:127.0.0.1:8000");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().family, net::Address::Family::kTcp);
  EXPECT_EQ(tcp.value().host, "127.0.0.1");
  EXPECT_EQ(tcp.value().port, 8000);
  // ToString round-trips through Parse (bare host:port implies tcp).
  EXPECT_EQ(tcp.value().ToString(), "127.0.0.1:8000");
  EXPECT_TRUE(net::Address::Parse(tcp.value().ToString()).ok());

  auto bare = net::Address::Parse("localhost:9");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().family, net::Address::Family::kTcp);

  auto unix_addr = net::Address::Parse("unix:/tmp/hs.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr.value().family, net::Address::Family::kUnix);
  EXPECT_EQ(unix_addr.value().path, "/tmp/hs.sock");
  EXPECT_EQ(unix_addr.value().ToString(), "unix:/tmp/hs.sock");
}

TEST(AddressTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(net::Address::Parse("").ok());
  EXPECT_FALSE(net::Address::Parse("tcp:host").ok());
  EXPECT_FALSE(net::Address::Parse("tcp:host:99999").ok());
  EXPECT_FALSE(net::Address::Parse("tcp:host:12x4").ok());
  EXPECT_FALSE(net::Address::Parse("unix:").ok());
  EXPECT_FALSE(net::Address::Parse("unix:" + std::string(200, 'a')).ok());
}

// --- protocol encode/decode ------------------------------------------------

TEST(ProtocolTest, BatchRequestRoundTrips) {
  Request req;
  req.op = Op::kBatch;
  req.ops = {bus::MmioOp::Write(0x104, 5), bus::MmioOp::Run(20),
             bus::MmioOp::Read(0x108)};
  auto back = DecodeRequest(Op::kBatch, EncodeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().ops, req.ops);
}

TEST(ProtocolTest, ReplyRoundTripsAllFields) {
  Reply reply;
  reply.code = StatusCode::kOutOfRange;
  reply.message = "boom";
  reply.irq_vector = 0b101;
  reply.elapsed_ps = 123456789;
  reply.run_ps = 1000;
  reply.value64 = 0xdeadbeefcafef00dull;
  reply.read_values = {1, 2, 0xffffffff};
  reply.blob = {9, 8, 7};
  auto back = DecodeReply(EncodeReply(reply));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().code, reply.code);
  EXPECT_EQ(back.value().message, reply.message);
  EXPECT_EQ(back.value().irq_vector, reply.irq_vector);
  EXPECT_EQ(back.value().elapsed_ps, reply.elapsed_ps);
  EXPECT_EQ(back.value().run_ps, reply.run_ps);
  EXPECT_EQ(back.value().value64, reply.value64);
  EXPECT_EQ(back.value().read_values, reply.read_values);
  EXPECT_EQ(back.value().blob, reply.blob);
}

TEST(ProtocolTest, HelloInfoAndStatsRoundTrip) {
  HelloInfo info;
  info.target_name = "sim-soc";
  info.target_kind = 1;
  info.capabilities = kCapDeltaSnapshots | kCapSlots;
  info.num_slots = 4;
  info.state_format_version = 7;
  info.shape_digest = 0x1122334455667788ull;
  auto back = DecodeHelloInfo(EncodeHelloInfo(info));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().target_name, info.target_name);
  EXPECT_EQ(back.value().capabilities, info.capabilities);
  EXPECT_EQ(back.value().num_slots, info.num_slots);
  EXPECT_EQ(back.value().shape_digest, info.shape_digest);

  ServerStats stats;
  stats.rpcs = 42;
  stats.batched_ops = 999;
  stats.bytes_sent = 1 << 20;
  auto stats_back = DecodeServerStats(EncodeServerStats(stats));
  ASSERT_TRUE(stats_back.ok());
  EXPECT_EQ(stats_back.value().rpcs, 42u);
  EXPECT_EQ(stats_back.value().batched_ops, 999u);
  EXPECT_EQ(stats_back.value().bytes_sent, 1u << 20);
}

// --- end-to-end equivalence ------------------------------------------------

TEST(RemoteTargetTest, MatchesLocalTargetOpForOp) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto local = bus::SimulatorTarget::Create(Soc());
  ASSERT_TRUE(local.ok());

  // Same driver sequence on both targets.
  const auto drive = [](bus::HardwareTarget* t) {
    EXPECT_TRUE(t->ResetHardware().ok());
    EXPECT_TRUE(t->Write32(TimerAddr(timer_regs::kLoad), 5).ok());
    EXPECT_TRUE(t->Write32(TimerAddr(timer_regs::kCtrl), 0b011).ok());
    EXPECT_TRUE(t->Run(20).ok());
  };
  drive(remote.value().get());
  drive(local.value().get());

  auto remote_status = remote.value()->Read32(TimerAddr(timer_regs::kStatus));
  auto local_status = local.value()->Read32(TimerAddr(timer_regs::kStatus));
  ASSERT_TRUE(remote_status.ok() && local_status.ok());
  EXPECT_EQ(remote_status.value(), local_status.value());
  EXPECT_EQ(remote.value()->IrqVector(), local.value()->IrqVector());

  auto remote_hash = remote.value()->StateHash();
  auto local_hash = local.value()->StateHash();
  ASSERT_TRUE(remote_hash.ok() && local_hash.ok());
  EXPECT_EQ(remote_hash.value(), local_hash.value());

  // The mirrored clock tracks the server target's exactly.
  EXPECT_EQ(remote.value()->clock().now().picos(),
            local.value()->clock().now().picos());
}

TEST(RemoteTargetTest, CapabilitiesMatchTheHostedTarget) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok());
  auto local = bus::SimulatorTarget::Create(Soc());
  ASSERT_TRUE(local.ok());

  // dynamic_cast discovery must agree with the in-process target: if the
  // hosted SimulatorTarget snapshots incrementally, so does its proxy.
  EXPECT_EQ(
      dynamic_cast<bus::DeltaSnapshotter*>(remote.value().get()) != nullptr,
      dynamic_cast<bus::DeltaSnapshotter*>(local.value().get()) != nullptr);
  EXPECT_EQ(
      dynamic_cast<bus::SlotSnapshotter*>(remote.value().get()) != nullptr,
      dynamic_cast<bus::SlotSnapshotter*>(local.value().get()) != nullptr);
  EXPECT_NE(dynamic_cast<bus::MmioBatcher*>(remote.value().get()), nullptr);
}

TEST(RemoteTargetTest, SnapshotRoundTripsOverTheWire) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok());
  bus::HardwareTarget* t = remote.value().get();

  ASSERT_TRUE(t->ResetHardware().ok());
  ASSERT_TRUE(t->Write32(TimerAddr(timer_regs::kLoad), 42).ok());
  ASSERT_TRUE(t->Write32(TimerAddr(timer_regs::kCtrl), 0b001).ok());
  ASSERT_TRUE(t->Run(7).ok());
  auto saved = t->SaveState();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  auto hash_at_save = t->StateHash();
  ASSERT_TRUE(hash_at_save.ok());

  ASSERT_TRUE(t->Run(100).ok());
  auto hash_later = t->StateHash();
  ASSERT_TRUE(hash_later.ok());
  EXPECT_NE(hash_later.value(), hash_at_save.value());

  ASSERT_TRUE(t->RestoreState(saved.value()).ok());
  auto hash_restored = t->StateHash();
  ASSERT_TRUE(hash_restored.ok());
  EXPECT_EQ(hash_restored.value(), hash_at_save.value());
  EXPECT_GE(t->stats().snapshots_saved, 1u);
  EXPECT_GE(t->stats().snapshots_restored, 1u);
}

TEST(RemoteTargetTest, DeltaSnapshotsWorkOverTheWire) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok());
  auto* delta_cap = dynamic_cast<bus::DeltaSnapshotter*>(remote.value().get());
  if (!delta_cap) GTEST_SKIP() << "hosted target has no delta snapshots";
  bus::HardwareTarget* t = remote.value().get();

  // Sync-point discipline from bus/delta_support.h, here across the wire:
  // a full save establishes the base, the delta captures the mutation,
  // and the reverse diff restores the base state.
  ASSERT_TRUE(t->ResetHardware().ok());
  auto base = t->SaveState();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto base_hash = t->StateHash();
  ASSERT_TRUE(base_hash.ok());

  ASSERT_TRUE(t->Write32(TimerAddr(timer_regs::kLoad), 9).ok());
  ASSERT_TRUE(t->Write32(TimerAddr(timer_regs::kCtrl), 0b001).ok());
  ASSERT_TRUE(t->Run(50).ok());
  auto delta = delta_cap->SaveStateDelta();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  // The shipped delta rebuilds the mutated state from the base exactly.
  sim::HardwareState rebuilt = base.value();
  ASSERT_TRUE(sim::ApplyDeltaToState(&rebuilt, delta.value()).ok());

  // Restore the base by shipping only the difference back.
  auto back = sim::DiffStates(rebuilt, base.value());
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(delta_cap->RestoreStateDelta(back.value()).ok());
  auto hash_restored = t->StateHash();
  ASSERT_TRUE(hash_restored.ok());
  EXPECT_EQ(hash_restored.value(), base_hash.value());
}

TEST(RemoteTargetTest, BatchedMmioMatchesReferenceInterpreter) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok());
  auto local = bus::SimulatorTarget::Create(Soc());
  ASSERT_TRUE(local.ok());

  const std::vector<bus::MmioOp> ops = {
      bus::MmioOp::Write(TimerAddr(timer_regs::kLoad), 5),
      bus::MmioOp::Write(TimerAddr(timer_regs::kCtrl), 0b011),
      bus::MmioOp::Run(20),
      bus::MmioOp::Read(TimerAddr(timer_regs::kStatus)),
      bus::MmioOp::Read(TimerAddr(timer_regs::kValue)),
  };
  auto* batcher = dynamic_cast<bus::MmioBatcher*>(remote.value().get());
  ASSERT_NE(batcher, nullptr);
  auto remote_reads = batcher->ExecuteMmio(ops);
  auto local_reads = bus::ExecuteMmioOps(local.value().get(), ops);
  ASSERT_TRUE(remote_reads.ok()) << remote_reads.status().ToString();
  ASSERT_TRUE(local_reads.ok());
  EXPECT_EQ(remote_reads.value(), local_reads.value());

  auto remote_hash = remote.value()->StateHash();
  auto local_hash = local.value()->StateHash();
  ASSERT_TRUE(remote_hash.ok() && local_hash.ok());
  EXPECT_EQ(remote_hash.value(), local_hash.value());
}

TEST(RemoteTargetTest, CoalescingDefersWritesUntilARead) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok());
  bus::HardwareTarget* t = remote.value().get();

  const uint64_t rpcs_before = remote.value()->counters().rpcs;
  ASSERT_TRUE(t->Write32(TimerAddr(timer_regs::kLoad), 5).ok());
  ASSERT_TRUE(t->Write32(TimerAddr(timer_regs::kCtrl), 0b011).ok());
  ASSERT_TRUE(t->Run(10).ok());
  ASSERT_TRUE(t->Run(10).ok());  // merges into the previous run op
  EXPECT_EQ(remote.value()->counters().rpcs, rpcs_before);  // all deferred
  auto status = t->Read32(TimerAddr(timer_regs::kStatus));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 1u);  // 20 cycles elapsed, timer fired
  EXPECT_EQ(remote.value()->counters().rpcs, rpcs_before + 1);  // one flush
}

// --- pipelining ------------------------------------------------------------

TEST(RemoteTargetTest, RawClientCanPipelineRequests) {
  auto server = StartServer();
  auto socket = net::Socket::Connect(server->bound(), 2000);
  ASSERT_TRUE(socket.ok());
  net::FrameStream stream(std::move(socket).value());

  // Three requests back-to-back without reading a single reply; the
  // session queues them and answers in order with matching seqs.
  for (uint32_t seq = 1; seq <= 3; ++seq) {
    Request req;
    req.op = seq == 1 ? Op::kHello : Op::kReset;
    ASSERT_TRUE(stream.Send(bus::Frame::kCommand, seq,
                            static_cast<uint32_t>(req.op), EncodeRequest(req))
                    .ok());
  }
  for (uint32_t seq = 1; seq <= 3; ++seq) {
    auto msg = stream.Recv(5000);
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    EXPECT_EQ(msg.value().seq, seq);
    EXPECT_EQ(msg.value().kind, bus::Frame::kReplyOk);
  }
}

// --- robustness: the server outlives hostile clients -----------------------

TEST(RemoteServerTest, GarbageHeaderClosesOnlyThatSession) {
  auto server = StartServer();

  // A well-behaved session opened BEFORE the attack must keep working.
  auto good = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(good.ok());

  auto bad = net::Socket::Connect(server->bound(), 2000);
  ASSERT_TRUE(bad.ok());
  const uint8_t garbage[17] = {0xff, 0xee, 0xdd};
  ASSERT_TRUE(bad.value().SendAll(garbage, sizeof garbage).ok());
  // The server answers a corrupt header by closing the session: the next
  // read sees EOF (kUnavailable), not a hang and not a crash.
  uint8_t buf[1];
  EXPECT_EQ(bad.value().RecvAll(buf, 1, 5000).code(),
            StatusCode::kUnavailable);

  // Both the existing session and new connections still serve.
  EXPECT_TRUE(good.value()->ResetHardware().ok());
  auto fresh = RemoteTarget::Connect(server->bound(), FastOptions());
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

TEST(RemoteServerTest, ForgedGiantLengthIsRejectedWithoutAllocating) {
  auto server = StartServer();
  auto socket = net::Socket::Connect(server->bound(), 2000);
  ASSERT_TRUE(socket.ok());

  // A valid header (CRC passes) declaring a payload far beyond the frame
  // limit: the server must reject it on the declared length alone — no
  // allocation, no attempt to read 4 GB.
  bus::Frame header;
  header.kind = bus::Frame::kCommand;
  header.seq = 1;
  header.addr = static_cast<uint32_t>(Op::kBatch);
  header.value = 0xfffffff0u;
  const auto wire = header.Encode();
  ASSERT_TRUE(socket.value().SendAll(wire.data(), wire.size()).ok());
  uint8_t buf[1];
  EXPECT_EQ(socket.value().RecvAll(buf, 1, 5000).code(),
            StatusCode::kUnavailable);
  EXPECT_GE(server->stats().protocol_errors, 1u);

  auto fresh = RemoteTarget::Connect(server->bound(), FastOptions());
  EXPECT_TRUE(fresh.ok());
}

TEST(RemoteServerTest, TruncatedRequestBodyClosesTheSession) {
  TargetServerOptions options;
  options.io_timeout_ms = 200;  // stalled-body verdict in test time
  auto server = StartServer(options);
  auto socket = net::Socket::Connect(server->bound(), 2000);
  ASSERT_TRUE(socket.ok());

  Request req;
  req.op = Op::kHello;
  req.client_name = "liar";
  const auto payload = EncodeRequest(req);
  bus::Frame header;
  header.kind = bus::Frame::kCommand;
  header.seq = 1;
  header.addr = static_cast<uint32_t>(Op::kHello);
  header.value = static_cast<uint32_t>(payload.size());
  auto wire = header.Encode();
  // Ship the header plus HALF the promised payload, then stall.
  wire.insert(wire.end(), payload.begin(),
              payload.begin() + static_cast<long>(payload.size() / 2));
  ASSERT_TRUE(socket.value().SendAll(wire.data(), wire.size()).ok());
  uint8_t buf[1];
  EXPECT_EQ(socket.value().RecvAll(buf, 1, 5000).code(),
            StatusCode::kUnavailable);
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

TEST(RemoteServerTest, MalformedRequestPayloadClosesTheSession) {
  auto server = StartServer();
  auto socket = net::Socket::Connect(server->bound(), 2000);
  ASSERT_TRUE(socket.ok());
  net::FrameStream stream(std::move(socket).value());

  // Framing is valid (header + payload CRC pass) but the batch payload
  // declares more ops than it carries — the request DECODER must refuse.
  ByteWriter w;
  w.U32(1000);  // declared op count with no ops behind it
  ASSERT_TRUE(stream.Send(bus::Frame::kCommand, 1,
                          static_cast<uint32_t>(Op::kBatch), w.Take())
                  .ok());
  auto msg = stream.Recv(5000);
  EXPECT_FALSE(msg.ok());
  EXPECT_GE(server->stats().protocol_errors, 1u);
}

// --- lifecycle -------------------------------------------------------------

TEST(RemoteServerTest, DrainRefusesNewSessionsAsUnavailable) {
  auto server = StartServer();
  server->Drain();
  RemoteTargetOptions options = FastOptions();
  options.connect_attempts = 2;
  auto refused = RemoteTarget::Connect(server->bound(), options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  EXPECT_GE(server->stats().sessions_refused, 1u);
}

TEST(RemoteServerTest, SessionCapRefusesTheExtraClient) {
  TargetServerOptions options;
  options.max_sessions = 1;
  auto server = StartServer(options);
  auto first = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(first.ok());
  RemoteTargetOptions fast = FastOptions();
  fast.connect_attempts = 1;
  auto second = RemoteTarget::Connect(server->bound(), fast);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
}

TEST(RemoteServerTest, StopKillsLiveSessionsAndClientsFailFast) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(remote.value()->ResetHardware().ok());
  server->Stop();
  // The dead connection surfaces as an infrastructure failure — exactly
  // what the campaign layer's fail-over path keys on.
  const Status s = remote.value()->ResetHardware();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(IsInfrastructureFailure(s.code())) << s.ToString();
  EXPECT_FALSE(remote.value()->responsive());
}

// A long-lived server must not keep the thread of every session it ever
// served: each one is joined soon after it closes.
TEST(RemoteServerTest, ClosedSessionsAreJoined) {
  TargetServerOptions options;
  options.accept_poll_ms = 5;
  auto server = StartServer(options);
  constexpr uint64_t kSessions = 40;
  for (uint64_t i = 0; i < kSessions; ++i) {
    auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE(remote.value()->ResetHardware().ok());
  }  // each client hangs up here, before the next one connects

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server->stats().sessions_closed < kSessions ||
          server->session_threads() > 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server->stats().sessions_accepted, kSessions);
  EXPECT_EQ(server->stats().sessions_closed, kSessions);
  EXPECT_EQ(server->active_sessions(), 0u);
  EXPECT_EQ(server->session_threads(), 0u);
}

TEST(RemoteServerTest, PerRpcStatsAccumulate) {
  auto server = StartServer();
  auto remote = RemoteTarget::Connect(server->bound(), FastOptions());
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(remote.value()->Write32(TimerAddr(timer_regs::kLoad), 1).ok());
  ASSERT_TRUE(remote.value()->Run(4).ok());
  ASSERT_TRUE(remote.value()->Read32(TimerAddr(timer_regs::kValue)).ok());

  auto stats = remote.value()->FetchServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().rpcs, 2u);          // hello + batch at least
  EXPECT_GE(stats.value().batched_ops, 3u);   // write + run + read
  EXPECT_GT(stats.value().bytes_received, 0u);
  EXPECT_GT(stats.value().bytes_sent, 0u);
  EXPECT_GE(remote.value()->counters().ops_shipped, 3u);
  EXPECT_GT(remote.value()->counters().bytes_sent, 0u);
}

}  // namespace
}  // namespace hardsnap::remote
