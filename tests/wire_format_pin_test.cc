// Wire-format pins: the bytes every snapshot container (HSSS, HSSD, HSST),
// checkpoint (HSCP), journal record and frame, hardsnapd RPC payload and
// FrameStream message puts on disk or on the wire, for fixed fixtures.
// Checkpoints written by an older build must resume under a newer one, and
// a client must talk to a server of the same protocol version whatever
// build either side runs — so a codec change must not move a single byte.
// Each fixture is pinned by its length and an FNV-1a digest of its bytes,
// and must decode and re-encode to itself.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "net/frame_stream.h"
#include "persist/checkpoint.h"
#include "persist/fs_util.h"
#include "persist/journal.h"
#include "remote/protocol.h"
#include "sim/delta.h"
#include "snapshot/snapshot.h"

namespace hardsnap {
namespace {

struct Pin {
  size_t size;
  uint64_t digest;
};

uint64_t Digest(const std::vector<uint8_t>& bytes) {
  Fnv1a h;
  for (uint8_t b : bytes) h.Mix(b);
  return h.digest();
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[4];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

void ExpectPinned(const char* what, const std::vector<uint8_t>& bytes,
                  Pin pin) {
  EXPECT_EQ(bytes.size(), pin.size) << what << ": " << Hex(bytes);
  EXPECT_EQ(Digest(bytes), pin.digest)
      << what << ": {" << bytes.size() << ", 0x" << std::hex << Digest(bytes)
      << "ull}\n" << Hex(bytes);
}

// --- fixtures ----------------------------------------------------------------

sim::HardwareState BaseState() {
  sim::HardwareState st;
  st.flops = {1, 0xdeadbeef, 0, 0x0123456789abcdefull, 7};
  st.memories = {{10, 20, 30, 40, 50}, {}, {0xffffffffffffffffull}};
  st.memories[0].resize(70, 5);  // spans two chunks
  return st;
}

sim::HardwareState NextState() {
  sim::HardwareState st = BaseState();
  st.flops[1] = 0xfeedface;
  st.memories[0][65] = 99;
  return st;
}

sim::StateDelta Delta() {
  auto d = sim::DiffStates(BaseState(), NextState());
  HS_CHECK_MSG(d.ok(), d.status().ToString());
  return std::move(d).value();
}

std::vector<uint8_t> StoreBlob() {
  snapshot::SnapshotStore store(0x5eed);
  HS_CHECK(store.Put(BaseState(), "root").ok());
  HS_CHECK(store.Put(NextState(), "next").ok());  // ships as a delta
  sim::HardwareState other;                        // new shape: ships full
  other.flops = {3, 4};
  HS_CHECK(store.Put(other, "").ok());
  auto blob = store.Serialize();
  HS_CHECK_MSG(blob.ok(), blob.status().ToString());
  return std::move(blob).value();
}

campaign::CampaignFinding Finding(uint32_t pc) {
  campaign::CampaignFinding f;
  f.crash.pc = pc;
  f.crash.reason = "out-of-bounds store";
  f.crash.input = {0xe7, 0x00, 0x41};
  f.worker = 1;
  f.worker_seed = 0x1234567890ull;
  f.execs_at_find = 64;
  return f;
}

symex::Report Report() {
  symex::Report rep;
  symex::Bug bug;
  bug.pc = 0x40;
  bug.kind = "ebreak";
  bug.detail = "assertion";
  bug.test_case.origin = "bug: ebreak";
  bug.test_case.inputs = {{"a0", 0xe7}, {"packet", 0x1122}};
  rep.bugs.push_back(bug);
  symex::TestCase exit_case;
  exit_case.origin = "exit";
  exit_case.inputs = {{"a0", 3}};
  rep.test_cases = {exit_case, bug.test_case};
  rep.paths_completed = 5;
  rep.paths_exited = 4;
  rep.exit_codes = {0, 1, 0, 7};
  rep.forks = 6;
  rep.instructions = 1234;
  rep.interrupts_served = 2;
  rep.hw_context_switches = 9;
  rep.replayed_instructions = 11;
  rep.reboots = 1;
  rep.concretizations = 3;
  rep.solver_queries = 17;
  rep.covered_pcs = 42;
  rep.snapshot_bytes_copied = 4096;
  rep.snapshot_bytes_shared = 1024;
  rep.snapshot_dedup_ratio = 0.2;
  rep.analysis_hw_time = Duration::Micros(19);
  rep.replay_overhead = Duration::Nanos(250);
  rep.link.frames_sent = 100;
  rep.link.retransmits = 2;
  rep.link.drops = 1;
  rep.link.corruptions = 1;
  rep.link.crc_rejects = 1;
  rep.link.stalls = 3;
  rep.link.outages = 0;
  rep.link.dedup_hits = 1;
  rep.link.deadline_breaches = 0;
  rep.link.failed_ops = 0;
  rep.console = "hello\n";
  return rep;
}

persist::CampaignDurableState Checkpoint() {
  persist::CampaignDurableState st;
  st.kind = persist::kCampaignKindSymex;
  st.fingerprint = 0x1234abcd5678ef00ull;
  st.worker_done = {800, 640};
  st.worker_rng_digest = {111, 222};
  st.edges = {3, 5, 8, 0x10000};
  for (unsigned w : {1u, 0u}) {
    persist::DurableOffer offer;
    offer.worker = w;
    offer.input = {static_cast<uint8_t>(0xd0 + w), 0xad};
    st.seen_inputs.insert(offer.input);
    st.offers.push_back(offer);
  }
  st.findings = {Finding(0x2c), Finding(0x30)};
  st.store_blob = StoreBlob();
  st.symex_reports[1] = Report();
  st.symex_reports[0] = symex::Report{};
  return st;
}

persist::FuzzBatchAck Ack() {
  persist::FuzzBatchAck ack;
  ack.worker = 1;
  ack.done = 128;
  ack.rng_digest = 777;
  ack.fresh_edges = {10, 11, 0x400};
  ack.new_inputs = {{0xaa}, {0xbb, 0xcc}};
  ack.new_findings = {Finding(0x2c), Finding(0x44)};
  return ack;
}

remote::Request RequestFor(remote::Op op) {
  remote::Request req;
  req.op = op;
  switch (op) {
    case remote::Op::kHello:
      req.client_name = "pin-client";
      break;
    case remote::Op::kBatch:
      req.ops = {bus::MmioOp::Write(0x40000104, 5), bus::MmioOp::Run(20),
                 bus::MmioOp::Read(0x4000010c)};
      break;
    case remote::Op::kSlotSave:
      req.slot = 2;
      break;
    case remote::Op::kSlotRestore:
      req.slot = 3;
      break;
    case remote::Op::kRestoreState:
      req.blob = snapshot::SerializeState(BaseState());
      break;
    case remote::Op::kRestoreDelta:
      req.blob = snapshot::SerializeStateDelta(Delta());
      break;
    default:
      break;
  }
  return req;
}

remote::Reply Reply() {
  remote::Reply reply;
  reply.code = StatusCode::kFailedPrecondition;
  reply.message = "not now";
  reply.irq_vector = 0x5;
  reply.elapsed_ps = 123456;
  reply.run_ps = 100000;
  reply.value64 = 0xabcdef0123ull;
  reply.read_values = {7, 8, 0xffffffffu};
  reply.blob = {1, 2, 3, 4};
  return reply;
}

remote::HelloInfo Hello() {
  remote::HelloInfo info;
  info.target_name = "sim-0";
  info.target_kind = 1;
  info.capabilities = remote::kCapDeltaSnapshots | remote::kCapSlots;
  info.num_slots = 4;
  info.state_format_version = snapshot::kStateFormatVersion;
  info.shape_digest = 0x5eed5eed5eedull;
  return info;
}

remote::ServerStats Stats() {
  remote::ServerStats s;
  s.sessions_accepted = 4;
  s.sessions_refused = 1;
  s.sessions_closed = 3;
  s.protocol_errors = 2;
  s.rpcs = 1000;
  s.batched_ops = 5000;
  s.bytes_received = 1 << 20;
  s.bytes_sent = 3 << 20;
  s.rpc_wall_micros = 987654;
  return s;
}

// --- snapshot containers ---------------------------------------------------

TEST(WireFormatPinTest, StateBlob) {
  const auto bytes = snapshot::SerializeState(BaseState());
  ExpectPinned("HSSS", bytes, {637, 0x129c69112b38e5e6ull});
  auto back = snapshot::DeserializeState(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(snapshot::SerializeState(back.value()), bytes);
}

TEST(WireFormatPinTest, DeltaBlob) {
  const auto bytes = snapshot::SerializeStateDelta(Delta());
  ExpectPinned("HSSD", bytes, {133, 0xf9badd6fbc2008a6ull});
  auto back = snapshot::DeserializeStateDelta(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(snapshot::SerializeStateDelta(back.value()), bytes);
}

TEST(WireFormatPinTest, StoreBlob) {
  const auto bytes = StoreBlob();
  ExpectPinned("HSST", bytes, {891, 0xf05f9bf461951a8cull});
  snapshot::SnapshotStore back(0x5eed);
  ASSERT_TRUE(back.Restore(bytes).ok());
  auto again = back.Serialize();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), bytes);
}

// --- checkpoint and journal ------------------------------------------------

TEST(WireFormatPinTest, Checkpoint) {
  const auto bytes = persist::SerializeCheckpoint(Checkpoint());
  ExpectPinned("HSCP", bytes, {1766, 0x453ac74bc21af154ull});
  auto back = persist::DeserializeCheckpoint(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(persist::SerializeCheckpoint(back.value()), bytes);
}

persist::CampaignDurableState EmptyState() {
  persist::CampaignDurableState st;
  st.worker_done = {0, 0};
  st.worker_rng_digest = {0, 0};
  return st;
}

TEST(WireFormatPinTest, FuzzAckRecord) {
  const auto bytes = persist::SerializeFuzzAckRecord(Ack());
  ExpectPinned("fuzz-ack record", bytes, {176, 0xc29577352dbf5a7bull});
  // The record's only decoder is the journal fold: rebuild the ack from
  // what it folded into an empty state and encode that again.
  auto st = EmptyState();
  ASSERT_TRUE(persist::ApplyRecord(bytes, &st).ok());
  persist::FuzzBatchAck back;
  back.worker = 1;
  back.done = st.worker_done[1];
  back.rng_digest = st.worker_rng_digest[1];
  back.fresh_edges.assign(st.edges.begin(), st.edges.end());
  for (const auto& offer : st.offers) back.new_inputs.push_back(offer.input);
  back.new_findings = st.findings;
  EXPECT_EQ(persist::SerializeFuzzAckRecord(back), bytes);
}

TEST(WireFormatPinTest, SymexReportRecord) {
  const auto bytes = persist::SerializeSymexReportRecord(1, Report());
  ExpectPinned("symex-report record", bytes, {406, 0x6e863a2f76443446ull});
  auto st = EmptyState();
  ASSERT_TRUE(persist::ApplyRecord(bytes, &st).ok());
  ASSERT_EQ(st.symex_reports.count(1), 1u);
  EXPECT_EQ(persist::SerializeSymexReportRecord(1, st.symex_reports.at(1)),
            bytes);
}

TEST(WireFormatPinTest, JournalFile) {
  char dir[] = "/tmp/hs_wire_pin_XXXXXX";
  ASSERT_NE(mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/journal";
  const std::vector<std::vector<uint8_t>> records = {
      persist::SerializeFuzzAckRecord(Ack()), {}, {0x5a}};
  {
    persist::Journal journal(path);
    for (const auto& r : records) ASSERT_TRUE(journal.Append(r, false).ok());
  }
  auto bytes = persist::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ExpectPinned("journal file", bytes.value(), {201, 0xddc06b1f93969ebbull});
  persist::Journal journal(path);
  auto replay = journal.Replay();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value().records, records);
  EXPECT_EQ(replay.value().valid_bytes, bytes.value().size());
  EXPECT_EQ(replay.value().truncated_bytes, 0u);
  std::remove(path.c_str());
  rmdir(dir);
}

// --- hardsnapd RPC payloads ------------------------------------------------

TEST(WireFormatPinTest, RequestForEveryOp) {
  const struct {
    remote::Op op;
    Pin pin;
  } cases[] = {
      {remote::Op::kHello, {19, 0x4ebbeec99a037396ull}},
      {remote::Op::kBatch, {43, 0xb8b6bc5f4e38f13bull}},
      {remote::Op::kReset, {0, 0x14650fb0739d0383ull}},
      {remote::Op::kSaveState, {0, 0x14650fb0739d0383ull}},
      {remote::Op::kRestoreState, {641, 0xd1b2cd649a40fd1bull}},
      {remote::Op::kStateHash, {0, 0x14650fb0739d0383ull}},
      {remote::Op::kSaveDelta, {0, 0x14650fb0739d0383ull}},
      {remote::Op::kRestoreDelta, {137, 0xd3ac26d3be46e651ull}},
      {remote::Op::kSlotSave, {4, 0xf15eee8fda36b811ull}},
      {remote::Op::kSlotRestore, {4, 0x516442878400fb80ull}},
      {remote::Op::kStats, {0, 0x14650fb0739d0383ull}},
  };
  for (const auto& c : cases) {
    const auto bytes = remote::EncodeRequest(RequestFor(c.op));
    ExpectPinned(remote::OpName(c.op), bytes, c.pin);
    auto back = remote::DecodeRequest(c.op, bytes);
    ASSERT_TRUE(back.ok()) << remote::OpName(c.op) << ": "
                           << back.status().ToString();
    EXPECT_EQ(remote::EncodeRequest(back.value()), bytes)
        << remote::OpName(c.op);
  }
}

TEST(WireFormatPinTest, Reply) {
  const auto bytes = remote::EncodeReply(Reply());
  ExpectPinned("reply", bytes, {64, 0xb255989283a11436ull});
  auto back = remote::DecodeReply(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(remote::EncodeReply(back.value()), bytes);
}

TEST(WireFormatPinTest, HelloInfo) {
  const auto bytes = remote::EncodeHelloInfo(Hello());
  ExpectPinned("hello-info", bytes, {27, 0x480c87f7f5c1993cull});
  auto back = remote::DecodeHelloInfo(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(remote::EncodeHelloInfo(back.value()), bytes);
}

TEST(WireFormatPinTest, ServerStats) {
  const auto bytes = remote::EncodeServerStats(Stats());
  ExpectPinned("server-stats", bytes, {72, 0xd41e814ab12f298cull});
  auto back = remote::DecodeServerStats(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(remote::EncodeServerStats(back.value()), bytes);
}

// One FrameStream message as it crosses the socket, then read back.
TEST(WireFormatPinTest, FrameStreamMessage) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::FrameStream stream{net::Socket(fds[0])};
  net::Socket peer(fds[1]);
  const struct {
    uint32_t op;
    std::vector<uint8_t> payload;
    Pin pin;
  } cases[] = {
      {static_cast<uint32_t>(remote::Op::kBatch),
       remote::EncodeRequest(RequestFor(remote::Op::kBatch)),
       {64, 0x1135ab7bc85ba734ull}},
      {static_cast<uint32_t>(remote::Op::kStats),
       {},
       {17, 0x6a2087437769c3bdull}},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(stream.Send(bus::Frame::kCommand, 77, c.op, c.payload).ok());
    std::vector<uint8_t> wire(c.pin.size);
    ASSERT_TRUE(peer.RecvAll(wire.data(), wire.size(), 1000).ok());
    ExpectPinned(remote::OpName(static_cast<remote::Op>(c.op)), wire, c.pin);
    ASSERT_TRUE(peer.SendAll(wire.data(), wire.size()).ok());
    auto back = stream.Recv(1000);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().kind, bus::Frame::kCommand);
    EXPECT_EQ(back.value().seq, 77u);
    EXPECT_EQ(back.value().op, c.op);
    EXPECT_EQ(back.value().payload, c.payload);
  }
}

}  // namespace
}  // namespace hardsnap
