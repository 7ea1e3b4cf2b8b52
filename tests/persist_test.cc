// Unit tests for the durability layer: filesystem discipline, the
// CRC-framed write-ahead journal (torn-tail recovery), the HSCP
// checkpoint container, idempotent journal-record application, recovery
// with quarantine, and the crash-point registry.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/serde.h"
#include "persist/campaign_persistence.h"
#include "persist/checkpoint.h"
#include "persist/crash_point.h"
#include "persist/fs_util.h"
#include "persist/journal.h"

namespace hardsnap::persist {
namespace {

// Fresh scratch directory per test (removed on teardown best-effort).
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/hs_persist_test_XXXXXX";
    char* d = mkdtemp(tmpl);
    HS_CHECK(d != nullptr);
    path_ = d;
  }
  ~ScratchDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      // best-effort cleanup; leak the scratch dir rather than abort
    }
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return b; }

// --- filesystem discipline -------------------------------------------------

TEST(FsUtilTest, AtomicWriteThenReadRoundTrips) {
  ScratchDir dir;
  const auto payload = Bytes({1, 2, 3, 4, 5});
  ASSERT_TRUE(AtomicWriteFile(dir.file("a.bin"), payload).ok());
  auto back = ReadFileBytes(dir.file("a.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
  // No tmp residue after a successful atomic write.
  auto names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"a.bin"});
}

TEST(FsUtilTest, AtomicWriteReplacesExistingContentCompletely) {
  ScratchDir dir;
  ASSERT_TRUE(AtomicWriteFile(dir.file("a.bin"), Bytes({9, 9, 9, 9})).ok());
  ASSERT_TRUE(AtomicWriteFile(dir.file("a.bin"), Bytes({1})).ok());
  auto back = ReadFileBytes(dir.file("a.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), Bytes({1}));
}

TEST(FsUtilTest, TruncateAmputatesTail) {
  ScratchDir dir;
  ASSERT_TRUE(AtomicWriteFile(dir.file("a.bin"), Bytes({1, 2, 3, 4})).ok());
  ASSERT_TRUE(TruncateFile(dir.file("a.bin"), 2).ok());
  auto back = ReadFileBytes(dir.file("a.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), Bytes({1, 2}));
}

TEST(FsUtilTest, EnsureDirIsIdempotent) {
  ScratchDir dir;
  const std::string sub = dir.file("sub");
  EXPECT_TRUE(EnsureDir(sub).ok());
  EXPECT_TRUE(EnsureDir(sub).ok());
  ASSERT_TRUE(AtomicWriteFile(sub + "/x", Bytes({1})).ok());
  EXPECT_TRUE(FileExists(sub + "/x"));
}

TEST(FsUtilTest, ReadMissingFileIsNotFound) {
  ScratchDir dir;
  auto r = ReadFileBytes(dir.file("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --- write-ahead journal ---------------------------------------------------

TEST(JournalTest, AppendReplayRoundTripsInOrder) {
  ScratchDir dir;
  Journal j(dir.file("j.wal"));
  ASSERT_TRUE(j.Append(Bytes({1, 2, 3})).ok());
  ASSERT_TRUE(j.Append(Bytes({})).ok());  // empty payloads are legal
  ASSERT_TRUE(j.Append(Bytes({42})).ok());
  Journal reader(dir.file("j.wal"));
  auto replay = reader.Replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 3u);
  EXPECT_EQ(replay.value().records[0], Bytes({1, 2, 3}));
  EXPECT_EQ(replay.value().records[1], Bytes({}));
  EXPECT_EQ(replay.value().records[2], Bytes({42}));
  EXPECT_EQ(replay.value().truncated_bytes, 0u);
}

TEST(JournalTest, MissingFileReplaysEmpty) {
  ScratchDir dir;
  Journal j(dir.file("never-written.wal"));
  auto replay = j.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
}

TEST(JournalTest, TornTailIsTruncatedAtEveryCutPoint) {
  ScratchDir dir;
  // Build a clean 3-record journal, remember its bytes.
  Journal writer(dir.file("j.wal"));
  ASSERT_TRUE(writer.Append(Bytes({1, 2, 3})).ok());
  ASSERT_TRUE(writer.Append(Bytes({4, 5})).ok());
  ASSERT_TRUE(writer.Append(Bytes({6})).ok());
  auto full = ReadFileBytes(dir.file("j.wal"));
  ASSERT_TRUE(full.ok());
  const auto& bytes = full.value();
  // Record boundaries: 8-byte frame header + payload.
  const size_t b1 = 8 + 3, b2 = b1 + 8 + 2, b3 = b2 + 8 + 1;
  ASSERT_EQ(bytes.size(), b3);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + cut);
    ASSERT_TRUE(AtomicWriteFile(dir.file("torn.wal"), torn).ok());
    Journal j(dir.file("torn.wal"));
    auto replay = j.Replay();
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    const size_t expect = cut >= b3 ? 3 : cut >= b2 ? 2 : cut >= b1 ? 1 : 0;
    EXPECT_EQ(replay.value().records.size(), expect) << "cut at " << cut;
    const size_t valid = expect == 3 ? b3 : expect == 2 ? b2
                         : expect == 1 ? b1 : 0;
    EXPECT_EQ(replay.value().truncated_bytes, cut - valid) << "cut " << cut;
    // Recovery truncated in place: the file now holds only valid records.
    auto after = ReadFileBytes(dir.file("torn.wal"));
    if (valid == 0) {
      // A fully-torn journal may be truncated to zero bytes.
      EXPECT_TRUE(!after.ok() || after.value().empty());
    } else {
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(after.value().size(), valid);
    }
    // Appending after recovery extends the valid prefix cleanly.
    ASSERT_TRUE(j.Append(Bytes({0xaa})).ok());
    auto replay2 = Journal(dir.file("torn.wal")).Replay();
    ASSERT_TRUE(replay2.ok());
    EXPECT_EQ(replay2.value().records.size(), expect + 1);
  }
}

TEST(JournalTest, CorruptPayloadByteMakesRecordTailGarbage) {
  ScratchDir dir;
  Journal writer(dir.file("j.wal"));
  ASSERT_TRUE(writer.Append(Bytes({1, 2, 3})).ok());
  ASSERT_TRUE(writer.Append(Bytes({4, 5, 6})).ok());
  auto full = ReadFileBytes(dir.file("j.wal"));
  ASSERT_TRUE(full.ok());
  auto corrupt = full.value();
  corrupt[8 + 1] ^= 0xff;  // flip a byte of record 0's payload
  ASSERT_TRUE(AtomicWriteFile(dir.file("j.wal"), corrupt).ok());
  auto replay = Journal(dir.file("j.wal")).Replay();
  ASSERT_TRUE(replay.ok());
  // The corrupt record and EVERYTHING after it is tail garbage: frames are
  // self-delimiting only while the CRCs hold.
  EXPECT_EQ(replay.value().records.size(), 0u);
  EXPECT_EQ(replay.value().truncated_bytes, corrupt.size());
}

TEST(JournalTest, ForgedHugeLengthIsTailGarbageNotAllocation) {
  ScratchDir dir;
  ByteWriter w;
  w.U32(0xfffffff0u);  // forged length far past kMaxJournalRecordBytes
  w.U32(0);            // crc (never checked: length is rejected first)
  ASSERT_TRUE(AtomicWriteFile(dir.file("j.wal"), w.Take()).ok());
  auto replay = Journal(dir.file("j.wal")).Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
  EXPECT_EQ(replay.value().truncated_bytes, 8u);
}

TEST(JournalTest, ResetEmptiesDurably) {
  ScratchDir dir;
  Journal j(dir.file("j.wal"));
  ASSERT_TRUE(j.Append(Bytes({1})).ok());
  ASSERT_TRUE(j.Reset().ok());
  auto replay = Journal(dir.file("j.wal")).Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
}

// --- checkpoint container --------------------------------------------------

CampaignDurableState SampleFuzzState() {
  CampaignDurableState st;
  st.kind = kCampaignKindFuzz;
  st.fingerprint = 0x1234abcd5678ef00ull;
  st.worker_done = {800, 640};
  st.worker_rng_digest = {111, 222};
  st.edges = {3, 5, 8};
  DurableOffer offer;
  offer.worker = 1;
  offer.input = {0xde, 0xad};
  st.offers.push_back(offer);
  st.seen_inputs.insert(offer.input);
  campaign::CampaignFinding f;
  f.crash.pc = 0x2c;
  f.crash.reason = "out-of-bounds store";
  f.crash.input = {0xe7, 0x00};
  f.worker = 1;
  f.worker_seed = 42;
  f.execs_at_find = 64;
  st.findings.push_back(f);
  return st;
}

void ExpectStatesEqual(const CampaignDurableState& a,
                       const CampaignDurableState& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.worker_done, b.worker_done);
  EXPECT_EQ(a.worker_rng_digest, b.worker_rng_digest);
  EXPECT_EQ(a.edges, b.edges);
  ASSERT_EQ(a.offers.size(), b.offers.size());
  for (size_t i = 0; i < a.offers.size(); ++i) {
    EXPECT_EQ(a.offers[i].worker, b.offers[i].worker);
    EXPECT_EQ(a.offers[i].input, b.offers[i].input);
  }
  EXPECT_EQ(a.seen_inputs, b.seen_inputs);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].crash.pc, b.findings[i].crash.pc);
    EXPECT_EQ(a.findings[i].crash.reason, b.findings[i].crash.reason);
    EXPECT_EQ(a.findings[i].crash.input, b.findings[i].crash.input);
    EXPECT_EQ(a.findings[i].worker, b.findings[i].worker);
    EXPECT_EQ(a.findings[i].worker_seed, b.findings[i].worker_seed);
    EXPECT_EQ(a.findings[i].execs_at_find, b.findings[i].execs_at_find);
  }
  EXPECT_EQ(a.store_blob, b.store_blob);
}

TEST(CheckpointSerdeTest, RoundTripsFuzzState) {
  const auto st = SampleFuzzState();
  auto back = DeserializeCheckpoint(SerializeCheckpoint(st));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectStatesEqual(st, back.value());
}

TEST(CheckpointSerdeTest, RoundTripsSymexReports) {
  CampaignDurableState st;
  st.kind = kCampaignKindSymex;
  st.fingerprint = 7;
  st.worker_done = {1, 0};
  st.worker_rng_digest = {0, 0};
  symex::Report rep;
  rep.paths_completed = 5;
  rep.instructions = 1234;
  rep.solver_queries = 17;
  symex::Bug bug;
  bug.pc = 0x40;
  bug.kind = "ebreak";
  bug.detail = "assertion";
  bug.test_case.origin = "bug: ebreak";
  bug.test_case.inputs["input"] = 0xe7;
  rep.bugs.push_back(bug);
  rep.analysis_hw_time = Duration::Micros(19);
  rep.snapshot_dedup_ratio = 0.75;
  st.symex_reports[0] = rep;
  auto back = DeserializeCheckpoint(SerializeCheckpoint(st));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().symex_reports.size(), 1u);
  const symex::Report& r = back.value().symex_reports.at(0);
  EXPECT_EQ(r.paths_completed, 5u);
  EXPECT_EQ(r.instructions, 1234u);
  EXPECT_EQ(r.solver_queries, 17u);
  ASSERT_EQ(r.bugs.size(), 1u);
  EXPECT_EQ(r.bugs[0].pc, 0x40u);
  EXPECT_EQ(r.bugs[0].kind, "ebreak");
  EXPECT_EQ(r.bugs[0].test_case.inputs.at("input"), 0xe7u);
  EXPECT_EQ(r.analysis_hw_time, Duration::Micros(19));
  EXPECT_DOUBLE_EQ(r.snapshot_dedup_ratio, 0.75);
}

TEST(CheckpointSerdeTest, TruncationAtEveryLengthFails) {
  const auto bytes = SerializeCheckpoint(SampleFuzzState());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DeserializeCheckpoint(cut).ok()) << "len " << len;
  }
}

TEST(CheckpointSerdeTest, BitFlipAnywhereFails) {
  const auto bytes = SerializeCheckpoint(SampleFuzzState());
  for (size_t bit = 0; bit < bytes.size() * 8; bit += 7) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(DeserializeCheckpoint(corrupt).ok()) << "bit " << bit;
  }
}

// Rewrites the CRC trailer so a deliberate mutation passes the integrity
// check and exercises the semantic validation behind it.
std::vector<uint8_t> WithFixedCrc(std::vector<uint8_t> bytes) {
  HS_CHECK(bytes.size() >= 4);
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  bytes[bytes.size() - 4] = static_cast<uint8_t>(crc & 0xff);
  bytes[bytes.size() - 3] = static_cast<uint8_t>((crc >> 8) & 0xff);
  bytes[bytes.size() - 2] = static_cast<uint8_t>((crc >> 16) & 0xff);
  bytes[bytes.size() - 1] = static_cast<uint8_t>((crc >> 24) & 0xff);
  return bytes;
}

TEST(CheckpointSerdeTest, UnknownFormatVersionIsInvalidArgument) {
  auto bytes = SerializeCheckpoint(SampleFuzzState());
  bytes[4] = kCheckpointFormatVersion + 1;  // version byte follows magic
  auto r = DeserializeCheckpoint(WithFixedCrc(bytes));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(CheckpointSerdeTest, UnknownCampaignKindFails) {
  auto bytes = SerializeCheckpoint(SampleFuzzState());
  bytes[5] = 99;  // kind byte follows version
  EXPECT_FALSE(DeserializeCheckpoint(WithFixedCrc(bytes)).ok());
}

// --- journal record application --------------------------------------------

FuzzBatchAck SampleAck() {
  FuzzBatchAck ack;
  ack.worker = 1;
  ack.done = 128;
  ack.rng_digest = 777;
  ack.fresh_edges = {10, 11};
  ack.new_inputs = {{0xaa}, {0xbb, 0xcc}};
  campaign::CampaignFinding f;
  f.crash.pc = 0x2c;
  f.crash.reason = "out-of-bounds store";
  f.crash.input = {0xe7, 0x00};
  f.worker = 1;
  f.worker_seed = 42;
  f.execs_at_find = 64;
  ack.new_findings.push_back(f);
  return ack;
}

CampaignDurableState EmptyState(uint32_t workers) {
  CampaignDurableState st;
  st.worker_done.assign(workers, 0);
  st.worker_rng_digest.assign(workers, 0);
  return st;
}

TEST(ApplyRecordTest, ReplayingTheSameRecordTwiceChangesNothing) {
  auto st = EmptyState(2);
  const auto rec = SerializeFuzzAckRecord(SampleAck());
  ASSERT_TRUE(ApplyRecord(rec, &st).ok());
  const auto once = st;
  ASSERT_TRUE(ApplyRecord(rec, &st).ok());
  ExpectStatesEqual(once, st);
  EXPECT_EQ(st.findings.size(), 1u);
  EXPECT_EQ(st.offers.size(), 2u);
  EXPECT_EQ(st.worker_done[1], 128u);
  EXPECT_EQ(st.worker_rng_digest[1], 777u);
}

TEST(ApplyRecordTest, StaleRecordNeverRewindsTheFrontier) {
  auto st = EmptyState(2);
  auto newer = SampleAck();
  newer.done = 512;
  newer.rng_digest = 999;
  ASSERT_TRUE(ApplyRecord(SerializeFuzzAckRecord(newer), &st).ok());
  ASSERT_TRUE(ApplyRecord(SerializeFuzzAckRecord(SampleAck()), &st).ok());
  EXPECT_EQ(st.worker_done[1], 512u);
  EXPECT_EQ(st.worker_rng_digest[1], 999u);
}

TEST(ApplyRecordTest, OutOfRangeWorkerIsRejected) {
  auto st = EmptyState(1);  // ack.worker == 1 is out of range
  auto r = ApplyRecord(SerializeFuzzAckRecord(SampleAck()), &st);
  EXPECT_FALSE(r.ok());
}

TEST(ApplyRecordTest, SymexReportRecordMarksWorkerComplete) {
  auto st = EmptyState(2);
  st.kind = kCampaignKindSymex;
  symex::Report rep;
  rep.paths_completed = 3;
  const auto rec = SerializeSymexReportRecord(1, rep);
  ASSERT_TRUE(ApplyRecord(rec, &st).ok());
  ASSERT_TRUE(ApplyRecord(rec, &st).ok());  // idempotent
  ASSERT_EQ(st.symex_reports.size(), 1u);
  EXPECT_EQ(st.symex_reports.at(1).paths_completed, 3u);
  EXPECT_EQ(st.worker_done[1], 1u);
}

TEST(ApplyRecordTest, GarbageRecordIsRejected) {
  auto st = EmptyState(1);
  EXPECT_FALSE(ApplyRecord(Bytes({0xff, 0x00, 0x12}), &st).ok());
  EXPECT_FALSE(ApplyRecord(Bytes({}), &st).ok());
}

symex::Report SampleReport() {
  symex::Report rep;
  rep.paths_completed = 3;
  symex::Bug bug;
  bug.pc = 0x40;
  bug.kind = "ebreak";
  bug.test_case.origin = "bug: ebreak";
  bug.test_case.inputs["a0"] = 0xe7;
  rep.bugs.push_back(bug);
  rep.test_cases.push_back(bug.test_case);
  rep.exit_codes = {0, 1};
  rep.console = "ok";
  return rep;
}

// The durable image of `st`, including the derived offer index.
std::pair<std::vector<uint8_t>, std::set<std::vector<uint8_t>>> Image(
    const CampaignDurableState& st) {
  return {SerializeCheckpoint(st), st.seen_inputs};
}

// Every proper prefix of either record type is rejected, and a rejected
// record leaves the state exactly as it was: the whole record decodes
// before anything folds.
TEST(ApplyRecordTest, RejectedPrefixLeavesStateUnchanged) {
  const std::vector<uint8_t> records[] = {
      SerializeFuzzAckRecord(SampleAck()),
      SerializeSymexReportRecord(1, SampleReport())};
  for (const auto& rec : records) {
    for (size_t len = 0; len < rec.size(); ++len) {
      auto st = SampleFuzzState();
      const auto before = Image(st);
      std::vector<uint8_t> cut(rec.begin(), rec.begin() + len);
      EXPECT_FALSE(ApplyRecord(cut, &st).ok()) << "prefix " << len;
      EXPECT_EQ(Image(st), before) << "prefix " << len;
    }
  }
}

// Journal records carry no CRC of their own (the journal frame's covers
// them), so a flipped bit may decode to some other valid record. It must
// never crash, and a rejected one must change nothing.
TEST(ApplyRecordTest, ToleratesEverySingleBitFlip) {
  const std::vector<uint8_t> records[] = {
      SerializeFuzzAckRecord(SampleAck()),
      SerializeSymexReportRecord(1, SampleReport())};
  for (const auto& rec : records) {
    for (size_t bit = 0; bit < rec.size() * 8; ++bit) {
      auto corrupt = rec;
      corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      auto st = SampleFuzzState();
      const auto before = Image(st);
      if (!ApplyRecord(corrupt, &st).ok()) {
        EXPECT_EQ(Image(st), before) << "bit " << bit;
      }
    }
  }
}

// --- CampaignPersistence recovery ------------------------------------------

PersistOptions Opts(const std::string& dir, uint64_t every = 16) {
  PersistOptions o;
  o.dir = dir;
  o.checkpoint_every = every;
  return o;
}

TEST(CampaignPersistenceTest, FreshDirectoryStartsEmpty) {
  ScratchDir dir;
  auto p = CampaignPersistence::Open(Opts(dir.path()), kCampaignKindFuzz,
                                     123, 2);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_FALSE(p.value()->resumed());
  EXPECT_EQ(p.value()->state().worker_done, (std::vector<uint64_t>{0, 0}));
}

TEST(CampaignPersistenceTest, AcksSurviveReopenViaJournalAlone) {
  ScratchDir dir;
  {
    auto p = CampaignPersistence::Open(Opts(dir.path()), kCampaignKindFuzz,
                                       123, 2);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value()->AckFuzzBatch(SampleAck()).ok());
    // No Checkpoint() call: the journal alone must carry the ack.
  }
  auto p = CampaignPersistence::Open(Opts(dir.path()), kCampaignKindFuzz,
                                     123, 2);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value()->resumed());
  const auto st = p.value()->state();
  ASSERT_EQ(st.findings.size(), 1u);
  EXPECT_EQ(st.findings[0].crash.pc, 0x2cu);
  EXPECT_EQ(st.worker_done[1], 128u);
  EXPECT_EQ(p.value()->stats().recovered_records, 1u);
}

TEST(CampaignPersistenceTest, CompactionThenMoreAcksRecoversBoth) {
  ScratchDir dir;
  {
    auto p = CampaignPersistence::Open(Opts(dir.path(), 1),
                                       kCampaignKindFuzz, 123, 2);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value()->AckFuzzBatch(SampleAck()).ok());  // compacts
    auto second = SampleAck();
    second.worker = 0;
    second.done = 64;
    second.new_findings.clear();
    second.fresh_edges = {20};
    second.new_inputs.clear();
    ASSERT_TRUE(p.value()->AckFuzzBatch(second).ok());  // compacts again
    EXPECT_GE(p.value()->stats().checkpoints_written, 2u);
  }
  auto p = CampaignPersistence::Open(Opts(dir.path(), 1), kCampaignKindFuzz,
                                     123, 2);
  ASSERT_TRUE(p.ok());
  const auto st = p.value()->state();
  EXPECT_EQ(st.worker_done, (std::vector<uint64_t>{64, 128}));
  EXPECT_EQ(st.edges, (std::set<uint64_t>{10, 11, 20}));
  EXPECT_EQ(st.findings.size(), 1u);
}

TEST(CampaignPersistenceTest, CorruptNewestCheckpointIsQuarantined) {
  ScratchDir dir;
  {
    auto p = CampaignPersistence::Open(Opts(dir.path(), 1),
                                       kCampaignKindFuzz, 123, 2);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value()->AckFuzzBatch(SampleAck()).ok());
  }
  // Plant a corrupt checkpoint with a NEWER sequence number.
  ASSERT_TRUE(AtomicWriteFile(dir.file("checkpoint-99.hscp"),
                              Bytes({0xde, 0xad, 0xbe, 0xef}))
                  .ok());
  auto p = CampaignPersistence::Open(Opts(dir.path(), 1), kCampaignKindFuzz,
                                     123, 2);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(p.value()->resumed());
  EXPECT_EQ(p.value()->state().findings.size(), 1u);
  EXPECT_EQ(p.value()->stats().quarantined_checkpoints, 1u);
  auto names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  bool quarantined = false, live99 = false;
  for (const auto& n : names.value()) {
    if (n == "checkpoint-99.hscp.quarantined") quarantined = true;
    if (n == "checkpoint-99.hscp") live99 = true;
  }
  EXPECT_TRUE(quarantined);
  EXPECT_FALSE(live99);
}

TEST(CampaignPersistenceTest, StaleTmpFilesAreSweptAtOpen) {
  ScratchDir dir;
  ASSERT_TRUE(EnsureDir(dir.path()).ok());
  ASSERT_TRUE(
      AppendToFile(dir.file("checkpoint-7.hscp.tmp"), Bytes({1, 2})).ok());
  auto p = CampaignPersistence::Open(Opts(dir.path()), kCampaignKindFuzz,
                                     123, 2);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(FileExists(dir.file("checkpoint-7.hscp.tmp")));
}

TEST(CampaignPersistenceTest, FingerprintMismatchFailsLoudly) {
  ScratchDir dir;
  {
    auto p = CampaignPersistence::Open(Opts(dir.path(), 1),
                                       kCampaignKindFuzz, 123, 2);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value()->AckFuzzBatch(SampleAck()).ok());
  }
  auto p = CampaignPersistence::Open(Opts(dir.path(), 1), kCampaignKindFuzz,
                                     456, 2);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(CampaignPersistenceTest, WorkerCountMismatchFailsLoudly) {
  ScratchDir dir;
  {
    auto p = CampaignPersistence::Open(Opts(dir.path(), 1),
                                       kCampaignKindFuzz, 123, 2);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value()->AckFuzzBatch(SampleAck()).ok());
  }
  auto p = CampaignPersistence::Open(Opts(dir.path(), 1), kCampaignKindFuzz,
                                     123, 4);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(CampaignPersistenceTest, ResumeRequiredOnEmptyDirIsNotFound) {
  ScratchDir dir;
  auto opts = Opts(dir.path());
  opts.resume_required = true;
  auto p = CampaignPersistence::Open(opts, kCampaignKindFuzz, 123, 2);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
}

// --- crash-point registry --------------------------------------------------

TEST(CrashPointTest, RegistryListsTheCanonicalPoints) {
  const auto& points = AllCrashPoints();
  EXPECT_GE(points.size(), 9u);
  for (const char* expected :
       {"journal.append.before", "journal.append.torn",
        "journal.append.after_write", "journal.append.after_sync",
        "checkpoint.before", "checkpoint.torn_tmp", "checkpoint.after_tmp",
        "checkpoint.after_rename", "checkpoint.after_journal_reset"}) {
    bool found = false;
    for (const auto& p : points)
      if (p == expected) found = true;
    EXPECT_TRUE(found) << "missing crash point " << expected;
  }
}

TEST(CrashPointTest, CountingModeTalliesWithoutCrashing) {
  SetCrashPointCounting(true);
  ClearCrashPointHits();
  ScratchDir dir;
  {
    auto p = CampaignPersistence::Open(Opts(dir.path(), 1),
                                       kCampaignKindFuzz, 123, 2);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value()->AckFuzzBatch(SampleAck()).ok());
    ASSERT_TRUE(p.value()->Checkpoint().ok());
  }
  SetCrashPointCounting(false);
  const auto hits = CrashPointHits();
  ClearCrashPointHits();
  for (const char* point :
       {"journal.append.before", "journal.append.after_sync",
        "checkpoint.before", "checkpoint.after_rename"}) {
    auto it = hits.find(point);
    ASSERT_NE(it, hits.end()) << point << " never hit";
    EXPECT_GE(it->second, 1u) << point;
  }
}

}  // namespace
}  // namespace hardsnap::persist
