// Deserializer robustness: a snapshot blob that was truncated, bit-flipped
// or forged in transit must come back as an error — never a crash, never a
// silently wrong state. Exercises every byte offset of both wire formats
// (HSSS full states, HSSD deltas) plus the ByteReader primitives the
// decoders are built on.
#include <gtest/gtest.h>

#include <vector>

#include "common/crc32.h"
#include "common/serde.h"
#include "remote/protocol.h"
#include "sim/delta.h"
#include "snapshot/snapshot.h"

namespace hardsnap::snapshot {
namespace {

sim::HardwareState SampleState() {
  sim::HardwareState st;
  st.flops = {1, 2, 3, 0xdeadbeef, 0x12345678};
  st.memories = {{10, 20, 30, 40}, {}, {7}};
  return st;
}

sim::StateDelta SampleDelta() {
  auto base = SampleState();
  auto next = base;
  next.flops[0] = 0xfeedface;
  next.memories[0][3] = 99;
  auto delta = sim::DiffStates(base, next);
  HS_CHECK_MSG(delta.ok(), delta.status().ToString());
  return std::move(delta).value();
}

// --- full-state blobs ------------------------------------------------------

TEST(SerdeRobustnessTest, StateSurvivesTruncationAtEveryLength) {
  const auto bytes = SerializeState(SampleState());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    auto r = DeserializeState(cut);
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(SerdeRobustnessTest, StateDetectsEverySingleBitFlip) {
  const auto bytes = SerializeState(SampleState());
  const auto original = DeserializeState(bytes);
  ASSERT_TRUE(original.ok());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = DeserializeState(corrupt);
    // CRC-32 detects every single-bit error, so no flip may decode — not
    // even to the correct state, and especially not to a different one.
    EXPECT_FALSE(r.ok()) << "bit flip at " << bit << " accepted";
  }
}

TEST(SerdeRobustnessTest, StateRejectsTrailingBytes) {
  auto bytes = SerializeState(SampleState());
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeState(bytes).ok());
}

// A forged blob that advertises a huge element count (with a CRC computed
// over the forgery so the integrity check passes) must fail as truncated
// instead of OOM-ing the host on the advertised allocation.
TEST(SerdeRobustnessTest, ForgedHugeLengthFailsWithoutAllocating) {
  ByteWriter w;
  w.U32(0x48535353);             // HSSS magic
  w.U8(kStateFormatVersion);
  w.U32(0xffffffffu);            // forged flop count: ~34 GB of u64s
  auto body = w.Take();
  const uint32_t crc = Crc32(body.data(), body.size());
  ByteWriter t;
  t.U32(crc);
  for (uint8_t b : t.Take()) body.push_back(b);
  auto r = DeserializeState(body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
      << r.status().ToString();
}

// --- delta blobs -----------------------------------------------------------

TEST(SerdeRobustnessTest, DeltaSurvivesTruncationAtEveryLength) {
  const auto bytes = SerializeStateDelta(SampleDelta());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    auto r = DeserializeStateDelta(cut);
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(SerdeRobustnessTest, DeltaDetectsEverySingleBitFlip) {
  const auto bytes = SerializeStateDelta(SampleDelta());
  ASSERT_TRUE(DeserializeStateDelta(bytes).ok());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(DeserializeStateDelta(corrupt).ok())
        << "bit flip at " << bit << " accepted";
  }
}

TEST(SerdeRobustnessTest, CorruptBlobsReportDataLoss) {
  auto bytes = SerializeState(SampleState());
  bytes[bytes.size() / 2] ^= 0x01;
  auto r = DeserializeState(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// --- ByteReader primitives -------------------------------------------------

TEST(SerdeRobustnessTest, ByteReaderBoundsChecksVectorLengthBeforeAlloc) {
  ByteWriter w;
  w.U32(0xffffffffu);  // declared count far beyond the payload
  w.U64(1);
  auto bytes = w.Take();
  ByteReader r(bytes);
  std::vector<uint64_t> v;
  r.U64s(v);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(v.capacity(), 0u);
}

TEST(SerdeRobustnessTest, ByteReaderBoundsChecksStringLength) {
  ByteWriter w;
  w.U32(100);  // declared string length, only 2 bytes follow
  w.U8('h');
  w.U8('i');
  auto bytes = w.Take();
  ByteReader r(bytes);
  std::string str;
  r.Str(str);
  EXPECT_FALSE(r.ok());
}

// --- format versioning -----------------------------------------------------

// Rewrites the CRC trailer after a deliberate mutation so the integrity
// check passes and the semantic validation behind it is exercised.
std::vector<uint8_t> WithFixedCrc(std::vector<uint8_t> bytes) {
  HS_CHECK(bytes.size() >= 4);
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>((crc >> (8 * i)) & 0xff);
  return bytes;
}

// A blob from a FUTURE format version (version byte follows the magic in
// every container) must be rejected as kInvalidArgument — decoding it
// with today's schema would produce silently wrong state, which is worse
// than failing.
TEST(SerdeRobustnessTest, StateRejectsUnknownFormatVersion) {
  auto bytes = SerializeState(SampleState());
  bytes[4] = kStateFormatVersion + 1;
  auto r = DeserializeState(WithFixedCrc(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(SerdeRobustnessTest, DeltaRejectsUnknownFormatVersion) {
  auto bytes = SerializeStateDelta(SampleDelta());
  bytes[4] = kStateFormatVersion + 1;
  auto r = DeserializeStateDelta(WithFixedCrc(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(SerdeRobustnessTest, StoreRejectsUnknownFormatVersion) {
  SnapshotStore store(42);
  ASSERT_TRUE(store.Put(SampleState(), "a").ok());
  auto blob = store.Serialize();
  ASSERT_TRUE(blob.ok());
  auto bytes = blob.value();
  bytes[4] = kStateFormatVersion + 1;  // HSST shares the snapshot version
  SnapshotStore back(42);
  auto s = back.Restore(WithFixedCrc(bytes));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(back.size(), 0u);
}

// Every count in a container is checked before anything is reserved, not
// only the first: a forged memory count (HSSS) or memory-depth or chunk
// count (HSSD) behind a valid CRC must fail as truncated too. A hardsnapd
// client can send such a blob in a restore request.
TEST(SerdeRobustnessTest, ForgedInnerCountsFailWithoutAllocating) {
  auto sealed = [](ByteWriter w) {
    w.U32(0);  // CRC placeholder
    return WithFixedCrc(w.Take());
  };
  ByteWriter state;
  state.U32(0x48535353);  // HSSS
  state.U8(kStateFormatVersion);
  state.U32(0);            // no flops
  state.U32(0xffffffffu);  // forged memory count
  auto r = DeserializeState(sealed(state));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);

  for (bool forge_chunks : {false, true}) {
    ByteWriter delta;
    delta.U32(0x48535344);  // HSSD
    delta.U8(kStateFormatVersion);
    delta.U64(0);              // base hash
    delta.U32(sim::kChunkWords);
    delta.U32(0);              // no flops
    delta.U32(forge_chunks ? 0 : 0xffffffffu);  // memory depths
    delta.U32(0xffffffffu);                      // chunks
    auto d = DeserializeStateDelta(sealed(delta));
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(SerdeRobustnessTest, CurrentVersionBlobsStillDecode) {
  // Guard against the version check rejecting version 1 itself.
  EXPECT_TRUE(DeserializeState(SerializeState(SampleState())).ok());
  EXPECT_TRUE(DeserializeStateDelta(SerializeStateDelta(SampleDelta())).ok());
}

// --- remote RPC payloads ---------------------------------------------------
//
// The hardsnapd request/reply decoders face the network, so they get the
// same treatment as the snapshot containers: truncate at every length,
// flip every bit, forge every declared count. Framing CRCs live a layer
// below (net/frame_stream.h); here the decoders must hold on their own —
// a hostile payload may fail, or decode to some other VALID message, but
// it must never crash, over-allocate or leave a half-built object. These
// run under the CI sanitizer matrix, which is what gives the "no memory
// error" half of the claim teeth.

remote::Request SampleBatchRequest() {
  remote::Request req;
  req.op = remote::Op::kBatch;
  req.ops = {bus::MmioOp::Write(0x104, 5), bus::MmioOp::Run(20),
             bus::MmioOp::Read(0x10c)};
  return req;
}

remote::Reply SampleReply() {
  remote::Reply reply;
  reply.message = "ok";
  reply.irq_vector = 3;
  reply.elapsed_ps = 123456;
  reply.read_values = {7, 8, 9};
  reply.blob = {1, 2, 3, 4};
  return reply;
}

TEST(SerdeRobustnessTest, RequestSurvivesTruncationAtEveryLength) {
  const remote::Op ops_with_payload[] = {
      remote::Op::kHello, remote::Op::kBatch, remote::Op::kSlotSave,
      remote::Op::kRestoreState, remote::Op::kRestoreDelta};
  for (remote::Op op : ops_with_payload) {
    remote::Request req;
    req.op = op;
    req.client_name = "fuzz";
    req.ops = SampleBatchRequest().ops;
    req.slot = 2;
    req.blob = {1, 2, 3, 4, 5, 6, 7, 8};
    const auto bytes = remote::EncodeRequest(req);
    ASSERT_TRUE(remote::DecodeRequest(op, bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
      EXPECT_FALSE(remote::DecodeRequest(op, cut).ok())
          << remote::OpName(op) << " truncated to " << len
          << " bytes accepted";
    }
  }
}

TEST(SerdeRobustnessTest, RequestToleratesEverySingleBitFlip) {
  const auto bytes = remote::EncodeRequest(SampleBatchRequest());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    // May decode (to a different batch) or fail — must not crash. A
    // successful decode must carry only well-formed ops.
    auto r = remote::DecodeRequest(remote::Op::kBatch, corrupt);
    if (!r.ok()) continue;
    for (const bus::MmioOp& op : r.value().ops) {
      EXPECT_GE(op.kind, bus::MmioOp::kRead);
      EXPECT_LE(op.kind, bus::MmioOp::kRun);
    }
  }
}

TEST(SerdeRobustnessTest, ReplySurvivesTruncationAtEveryLength) {
  const auto bytes = remote::EncodeReply(SampleReply());
  ASSERT_TRUE(remote::DecodeReply(bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(remote::DecodeReply(cut).ok())
        << "reply truncated to " << len << " bytes accepted";
  }
}

TEST(SerdeRobustnessTest, ReplyToleratesEverySingleBitFlip) {
  const auto bytes = remote::EncodeReply(SampleReply());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = remote::DecodeReply(corrupt);
    if (!r.ok()) continue;  // rejection is fine; crashing is not
    // An accepted status byte must still be a known code.
    EXPECT_LE(static_cast<uint8_t>(r.value().code),
              static_cast<uint8_t>(StatusCode::kDataLoss));
  }
}

remote::HelloInfo SampleHello() {
  remote::HelloInfo info;
  info.target_name = "sim-0";
  info.target_kind = 1;
  info.capabilities = remote::kCapDeltaSnapshots;
  info.state_format_version = kStateFormatVersion;
  info.shape_digest = 0x5eed;
  return info;
}

remote::ServerStats SampleServerStats() {
  remote::ServerStats stats;
  stats.sessions_accepted = 4;
  stats.rpcs = 1000;
  stats.bytes_sent = 1 << 20;
  return stats;
}

TEST(SerdeRobustnessTest,
     HelloInfoAndServerStatsSurviveTruncationAtEveryLength) {
  const auto hello = remote::EncodeHelloInfo(SampleHello());
  ASSERT_TRUE(remote::DecodeHelloInfo(hello).ok());
  for (size_t len = 0; len < hello.size(); ++len) {
    std::vector<uint8_t> cut(hello.begin(), hello.begin() + len);
    EXPECT_FALSE(remote::DecodeHelloInfo(cut).ok())
        << "hello-info truncated to " << len << " bytes accepted";
  }
  const auto stats = remote::EncodeServerStats(SampleServerStats());
  ASSERT_TRUE(remote::DecodeServerStats(stats).ok());
  for (size_t len = 0; len < stats.size(); ++len) {
    std::vector<uint8_t> cut(stats.begin(), stats.begin() + len);
    EXPECT_FALSE(remote::DecodeServerStats(cut).ok())
        << "server-stats truncated to " << len << " bytes accepted";
  }
}

// Neither payload carries a CRC of its own (the frame's covers it), so a
// flip may decode, but only to a message that encodes back to exactly the
// flipped bytes: nothing is dropped or invented on the way.
TEST(SerdeRobustnessTest, HelloInfoAndServerStatsTolerateEverySingleBitFlip) {
  const auto hello = remote::EncodeHelloInfo(SampleHello());
  for (size_t bit = 0; bit < hello.size() * 8; ++bit) {
    auto corrupt = hello;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = remote::DecodeHelloInfo(corrupt);
    if (r.ok()) {
      EXPECT_EQ(remote::EncodeHelloInfo(r.value()), corrupt);
    }
  }
  const auto stats = remote::EncodeServerStats(SampleServerStats());
  for (size_t bit = 0; bit < stats.size() * 8; ++bit) {
    auto corrupt = stats;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = remote::DecodeServerStats(corrupt);
    ASSERT_TRUE(r.ok()) << "bit " << bit;  // every field is a plain u64
    EXPECT_EQ(remote::EncodeServerStats(r.value()), corrupt);
  }
}

TEST(SerdeRobustnessTest, ForgedBatchCountFailsWithoutAllocating) {
  ByteWriter w;
  w.U32(0xffffffffu);  // ~56 GB of MmioOps declared, none present
  auto r = remote::DecodeRequest(remote::Op::kBatch, w.Take());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(SerdeRobustnessTest, ForgedRestoreBlobLengthFailsWithoutAllocating) {
  ByteWriter w;
  w.U32(0xfffffff0u);
  w.U8(0);  // one actual byte behind a ~4 GB declaration
  auto r = remote::DecodeRequest(remote::Op::kRestoreState, w.Take());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeRobustnessTest, ForgedReplyReadCountFailsWithoutAllocating) {
  remote::Reply reply = SampleReply();
  reply.read_values.clear();
  auto bytes = remote::EncodeReply(reply);
  // The read-count u32 sits after code(1) + message(4+2) + irq(4) +
  // elapsed(8) + run(8) + value64(8): forge it to the maximum.
  const size_t count_at = 1 + 4 + reply.message.size() + 4 + 8 + 8 + 8;
  ASSERT_LT(count_at + 4, bytes.size());
  for (int i = 0; i < 4; ++i) bytes[count_at + static_cast<size_t>(i)] = 0xff;
  auto r = remote::DecodeReply(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(SerdeRobustnessTest, RequestRejectsTrailingBytes) {
  auto bytes = remote::EncodeRequest(SampleBatchRequest());
  bytes.push_back(0);
  EXPECT_FALSE(remote::DecodeRequest(remote::Op::kBatch, bytes).ok());
  // Opcodes with empty payloads must insist on exactly that.
  EXPECT_TRUE(remote::DecodeRequest(remote::Op::kReset, {}).ok());
  EXPECT_FALSE(remote::DecodeRequest(remote::Op::kReset, {0}).ok());
}

TEST(SerdeRobustnessTest, RequestRejectsHostileEnumValues) {
  // Unknown opcode.
  EXPECT_FALSE(remote::DecodeRequest(static_cast<remote::Op>(99), {}).ok());
  // Batch op with an invalid kind byte.
  ByteWriter w;
  w.U32(1);
  w.U8(0xee);  // MmioOp kind
  w.U32(0);
  w.U64(0);
  EXPECT_FALSE(remote::DecodeRequest(remote::Op::kBatch, w.Take()).ok());
  // Hello with the wrong magic.
  remote::Request hello;
  hello.op = remote::Op::kHello;
  hello.magic = 0x12345678;
  EXPECT_FALSE(
      remote::DecodeRequest(remote::Op::kHello, remote::EncodeRequest(hello))
          .ok());
  // Reply carrying an out-of-range status code.
  remote::Reply reply = SampleReply();
  auto bytes = remote::EncodeReply(reply);
  bytes[0] = 0xfe;
  EXPECT_FALSE(remote::DecodeReply(bytes).ok());
}

}  // namespace
}  // namespace hardsnap::snapshot
