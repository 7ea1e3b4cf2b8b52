// Delta snapshot correctness: the copy-on-write paths must be bit-for-bit
// equivalent to the full DumpState/RestoreState paths under randomized
// stimulus, for every peripheral in the corpus and for random fork trees
// through the chunked snapshot store.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bus/sim_target.h"
#include "common/rng.h"
#include "firmware/corpus.h"
#include "fpga/fpga_target.h"
#include "fuzz/fuzzer.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "sim/delta.h"
#include "snapshot/snapshot.h"
#include "symex/executor.h"
#include "vm/assembler.h"

namespace hardsnap {
namespace {

using sim::HardwareState;
using sim::StateDelta;

rtl::Design Compile(const std::string& verilog, const std::string& top) {
  auto d = rtl::CompileVerilog(verilog, top);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

rtl::Design& Soc() {
  static rtl::Design* d = [] {
    auto r =
        rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()), "soc");
    HS_CHECK_MSG(r.ok(), r.status().ToString());
    return new rtl::Design(std::move(r).value());
  }();
  return *d;
}

// Drive random bus traffic and clock cycles into a simulator. `addr_limit`
// bounds the address space: 0x100 for a lone peripheral (8-bit addr),
// 0x400 for the 4-region SoC (addr[15:8] selects the peripheral).
void RandomStimulus(sim::Simulator* sim, Rng* rng, unsigned ops,
                    uint64_t addr_limit = 0x100) {
  for (unsigned i = 0; i < ops; ++i) {
    switch (rng->Below(4)) {
      case 0:
        sim->Tick(1 + static_cast<unsigned>(rng->Below(8)));
        break;
      case 1: {  // random register-bus write
        (void)sim->PokeInput("sel", 1);
        (void)sim->PokeInput("wr", 1);
        (void)sim->PokeInput("rd", 0);
        (void)sim->PokeInput("addr", rng->Below(addr_limit));
        (void)sim->PokeInput("wdata", rng->Bits(32));
        sim->Tick(1);
        (void)sim->PokeInput("sel", 0);
        (void)sim->PokeInput("wr", 0);
        break;
      }
      case 2: {  // random register-bus read (side effects: FIFO pops)
        (void)sim->PokeInput("sel", 1);
        (void)sim->PokeInput("rd", 1);
        (void)sim->PokeInput("wr", 0);
        (void)sim->PokeInput("addr", rng->Below(addr_limit));
        sim->Tick(1);
        (void)sim->PokeInput("sel", 0);
        (void)sim->PokeInput("rd", 0);
        break;
      }
      default:
        sim->Tick(1);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Delta primitives.

TEST(DeltaPrimitivesTest, FullDeltaCoversEveryChunkAndApplies) {
  HardwareState a;
  a.flops = {1, 2, 3, 4, 5, 6, 7, 8, 9};  // 3 chunks (4 + 4 + 1)
  a.memories = {{10, 20, 30}, {}};
  StateDelta full = sim::FullDelta(a);
  EXPECT_EQ(full.chunks.size(), 4u);  // 3 flop chunks + 1 mem chunk
  EXPECT_EQ(full.PayloadWords(), 12u);

  HardwareState b;
  b.flops.assign(9, 0);
  b.memories = {{0, 0, 0}, {}};
  ASSERT_TRUE(sim::ApplyDeltaToState(&b, full).ok());
  EXPECT_EQ(a, b);
}

TEST(DeltaPrimitivesTest, StateShapeGeometry) {
  HardwareState a;
  a.flops.assign(9, 0);              // chunks of 4, 4, 1 words
  a.memories = {{1, 2, 3}, {}, {4}};  // 1 chunk, none, 1 chunk
  const sim::StateShape shape = sim::StateShape::Of(a);
  EXPECT_EQ(shape, (sim::StateShape{9, {3, 0, 1}}));
  EXPECT_TRUE(shape.Matches(a));
  EXPECT_EQ(shape.num_spaces(), 4u);
  EXPECT_EQ(shape.SpaceWords(1), 3u);
  EXPECT_EQ(shape.ChunkLen(0, 1), 4u);
  EXPECT_EQ(shape.ChunkLen(0, 2), 1u);
  EXPECT_EQ(shape.FirstChunk(0), 0u);
  EXPECT_EQ(shape.FirstChunk(1), 3u);
  EXPECT_EQ(shape.FirstChunk(3), 4u);
  EXPECT_EQ(shape.FirstChunk(4), 5u);  // total chunk count
  EXPECT_TRUE(shape.Check({3, 0, {4}}).ok());
  EXPECT_FALSE(shape.Check({4, 0, {4}}).ok());     // no such space
  EXPECT_FALSE(shape.Check({2, 0, {}}).ok());      // empty space: no chunks
  EXPECT_FALSE(shape.Check({0, 2, {1, 2}}).ok());  // tail chunk is 1 word
  a.memories[2].push_back(5);
  EXPECT_FALSE(shape.Matches(a));
}

// HashState's value is stored in checkpoints and sent as HSSD base_hash,
// so its mixing (FNV-1a over sizes and words) is pinned here.
TEST(DeltaPrimitivesTest, HashStateIsPinned) {
  HardwareState st;
  st.flops = {1, 2, 3};
  st.memories = {{4, 5}};
  EXPECT_EQ(sim::HashState(st), 0x5fdc0b10d933be20ull);
}

TEST(DeltaPrimitivesTest, DiffStatesEmitsOnlyChangedChunks) {
  HardwareState a;
  a.flops.assign(20, 7);  // 5 chunks
  a.memories = {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}};  // 3 chunks
  HardwareState b = a;
  b.flops[17] = 99;      // flop chunk 4
  b.memories[0][0] = 0;  // mem chunk 0
  auto d = sim::DiffStates(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().chunks.size(), 2u);
  EXPECT_EQ(d.value().base_hash, sim::HashState(a));

  HardwareState c = a;
  ASSERT_TRUE(sim::ApplyDeltaToState(&c, d.value()).ok());
  EXPECT_EQ(c, b);
}

TEST(DeltaPrimitivesTest, ApplyRejectsWrongBase) {
  HardwareState a;
  a.flops.assign(4, 1);
  HardwareState b = a;
  b.flops[0] = 2;
  auto d = sim::DiffStates(a, b);
  ASSERT_TRUE(d.ok());
  HardwareState not_a = a;
  not_a.flops[3] = 42;  // differs from the delta's base
  EXPECT_FALSE(sim::ApplyDeltaToState(&not_a, d.value()).ok());
}

TEST(DeltaPrimitivesTest, ApplyRejectsShapeMismatch) {
  HardwareState a;
  a.flops.assign(4, 1);
  StateDelta d = sim::FullDelta(a);
  HardwareState wrong;
  wrong.flops.assign(5, 1);
  EXPECT_FALSE(sim::ApplyDeltaToState(&wrong, d).ok());
  HardwareState wrong_mem = a;
  wrong_mem.memories.push_back({1, 2});
  EXPECT_FALSE(sim::ApplyDeltaToState(&wrong_mem, d).ok());
}

// ---------------------------------------------------------------------------
// Property: CaptureDelta against the last sync point reconstructs
// DumpState exactly, for every peripheral under randomized stimulus.

TEST(DeltaPropertyTest, CaptureDeltaEqualsFullDumpOnAllPeripherals) {
  struct Core {
    const char* top;
    std::string verilog;
  };
  const Core cores[] = {
      {"hs_timer", periph::TimerVerilog()},
      {"hs_uart", periph::UartVerilog()},
      {"hs_aes128", periph::Aes128Verilog()},
      {"hs_sha256", periph::Sha256Verilog()},
      {"hs_watchdog", periph::WatchdogVerilog()},
  };
  for (const auto& core : cores) {
    SCOPED_TRACE(core.top);
    auto sim_or = sim::Simulator::Create(Compile(core.verilog, core.top));
    ASSERT_TRUE(sim_or.ok());
    sim::Simulator sim = std::move(sim_or).value();
    ASSERT_TRUE(sim.Reset().ok());
    Rng rng(0xC0FFEE ^ std::hash<std::string>{}(core.top));

    HardwareState synced = sim.DumpState();
    sim.MarkSynced();
    for (unsigned round = 0; round < 12; ++round) {
      RandomStimulus(&sim, &rng, 10);
      const HardwareState expect = sim.DumpState();
      StateDelta d = sim.CaptureDelta();
      // The delta applied to the previous sync state must equal the dump.
      ASSERT_TRUE(sim::ApplyDeltaToState(&synced, d).ok());
      EXPECT_EQ(synced, expect) << "round " << round;
    }
  }
}

TEST(DeltaPropertyTest, RestoreDeltaRevertsToSyncPoint) {
  auto sim_or = sim::Simulator::Create(Soc());
  ASSERT_TRUE(sim_or.ok());
  sim::Simulator sim = std::move(sim_or).value();
  ASSERT_TRUE(sim.Reset().ok());
  Rng rng(99);

  for (unsigned round = 0; round < 8; ++round) {
    sim.MarkSynced();
    const HardwareState at_sync = sim.DumpState();
    RandomStimulus(&sim, &rng, 15, 0x400);
    // Empty delta = "revert to the sync point".
    StateDelta empty = sim::EmptyDeltaFor(at_sync);
    empty.base_hash = sim::HashState(at_sync);
    ASSERT_TRUE(sim.RestoreDelta(empty).ok());
    EXPECT_EQ(sim.DumpState(), at_sync) << "round " << round;
  }
}

TEST(DeltaPropertyTest, RestoreDeltaMovesToSiblingState) {
  auto sim_or = sim::Simulator::Create(Soc());
  ASSERT_TRUE(sim_or.ok());
  sim::Simulator sim = std::move(sim_or).value();
  ASSERT_TRUE(sim.Reset().ok());
  Rng rng(1234);

  sim.MarkSynced();
  const HardwareState a = sim.DumpState();
  RandomStimulus(&sim, &rng, 10, 0x400);
  const HardwareState b = sim.DumpState();
  sim.CaptureDelta();  // sync point now = b
  RandomStimulus(&sim, &rng, 10, 0x400);  // drift away from b (dirty)

  // A sibling delta (b -> a) both reverts the drift and lands on a.
  auto to_a = sim::DiffStates(b, a);
  ASSERT_TRUE(to_a.ok());
  ASSERT_TRUE(sim.RestoreDelta(to_a.value()).ok());
  EXPECT_EQ(sim.DumpState(), a);

  // RestoreDelta is itself a sync point: another sibling hop (a -> b).
  auto to_b = sim::DiffStates(a, b);
  ASSERT_TRUE(to_b.ok());
  ASSERT_TRUE(sim.RestoreDelta(to_b.value()).ok());
  EXPECT_EQ(sim.DumpState(), b);
}

TEST(DeltaPropertyTest, RestoreDeltaRejectsWrongBaseHash) {
  auto sim_or = sim::Simulator::Create(Soc());
  ASSERT_TRUE(sim_or.ok());
  sim::Simulator sim = std::move(sim_or).value();
  ASSERT_TRUE(sim.Reset().ok());
  sim.MarkSynced();
  StateDelta empty = sim::EmptyDeltaFor(sim.DumpState());
  empty.base_hash = 0xdeadbeefdeadbeefull;  // not the sync point's hash
  EXPECT_FALSE(sim.RestoreDelta(empty).ok());
}

// ---------------------------------------------------------------------------
// Targets: delta save/restore must be bit-identical to the full path.

TEST(TargetDeltaTest, SimulatorTargetDeltaMatchesFull) {
  auto t = bus::SimulatorTarget::Create(Soc());
  ASSERT_TRUE(t.ok());
  auto* target = t.value().get();
  ASSERT_TRUE(target->ResetHardware().ok());

  auto base = target->SaveState();  // sync point
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(target->Write32(periph::timer_regs::kLoad, 555).ok());
  ASSERT_TRUE(target->Run(50).ok());

  const HardwareState full = target->simulator()->DumpState();
  auto d = target->SaveStateDelta();
  ASSERT_TRUE(d.ok());
  HardwareState rebuilt = base.value();
  ASSERT_TRUE(sim::ApplyDeltaToState(&rebuilt, d.value()).ok());
  EXPECT_EQ(rebuilt, full);
  EXPECT_LT(d.value().PayloadWords(), sim::StateWords(full));

  // Delta restore back to the earlier sync point content.
  auto back = sim::DiffStates(rebuilt, base.value());
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(target->RestoreStateDelta(back.value()).ok());
  EXPECT_EQ(target->simulator()->DumpState(), base.value());
}

TEST(TargetDeltaTest, FpgaTargetDeltaMatchesFull) {
  auto t = fpga::FpgaTarget::Create(Soc());
  ASSERT_TRUE(t.ok());
  auto* target = t.value().get();
  ASSERT_TRUE(target->ResetHardware().ok());

  auto base = target->SaveState();  // establishes the host mirror
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(target->Write32((2u << 8) | periph::aes_regs::kKey0, 42).ok());
  ASSERT_TRUE(target->Run(30).ok());

  auto d = target->SaveStateDelta();
  ASSERT_TRUE(d.ok());
  HardwareState rebuilt = base.value();
  ASSERT_TRUE(sim::ApplyDeltaToState(&rebuilt, d.value()).ok());
  // The rebuilt state restored via the FULL path must round-trip.
  ASSERT_TRUE(target->RestoreState(rebuilt).ok());
  auto again = target->SaveState();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), rebuilt);

  // Delta restore: revert to `base` by shipping only the difference.
  auto back = sim::DiffStates(rebuilt, base.value());
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(target->RestoreStateDelta(back.value()).ok());
  auto readback = target->SaveState();
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), base.value());
}

TEST(TargetDeltaTest, FpgaDeltaRestoreNeedsSyncPoint) {
  auto t = fpga::FpgaTarget::Create(Soc());
  ASSERT_TRUE(t.ok());
  auto* target = t.value().get();
  ASSERT_TRUE(target->ResetHardware().ok());
  StateDelta empty;
  EXPECT_FALSE(target->RestoreStateDelta(empty).ok());
}

TEST(TargetDeltaTest, FpgaSlotRestoreInvalidatesMirror) {
  auto t = fpga::FpgaTarget::Create(Soc());
  ASSERT_TRUE(t.ok());
  auto* target = t.value().get();
  ASSERT_TRUE(target->ResetHardware().ok());
  auto base = target->SaveState();
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(target->SaveLiveToSlot(1).ok());
  ASSERT_TRUE(target->Run(20).ok());
  ASSERT_TRUE(target->RestoreLiveFromSlot(1).ok());
  // Mirror is gone: the next delta save must degrade to a full payload.
  auto d = target->SaveStateDelta();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().PayloadWords(), sim::StateWords(base.value()));
  EXPECT_EQ(d.value().base_hash, 0u);  // base-free delta
}

// ---------------------------------------------------------------------------
// Chunked store: structural sharing + random fork trees.

HardwareState RandomState(Rng* rng, size_t flops, std::vector<size_t> mems) {
  HardwareState st;
  st.flops.reserve(flops);
  for (size_t i = 0; i < flops; ++i) st.flops.push_back(rng->Bits(32));
  for (size_t depth : mems) {
    std::vector<uint64_t> mem;
    mem.reserve(depth);
    for (size_t i = 0; i < depth; ++i) mem.push_back(rng->Bits(32));
    st.memories.push_back(std::move(mem));
  }
  return st;
}

TEST(ChunkedStoreTest, SiblingSnapshotsShareChunks) {
  snapshot::SnapshotStore store(1);
  Rng rng(5);
  HardwareState a = RandomState(&rng, 100, {64});
  ASSERT_TRUE(store.Put(a, "a").ok());
  HardwareState b = a;
  b.flops[3] ^= 1;  // one chunk differs
  ASSERT_TRUE(store.Put(b, "b").ok());
  // b shares all but one flop chunk and all memory chunks with a.
  const auto& st = store.stats();
  EXPECT_GT(st.chunks_shared, 0u);
  EXPECT_GT(st.bytes_shared, st.bytes_copied / 2);
  EXPECT_LT(store.ResidentBytes(), store.TotalBytes());
  EXPECT_EQ(store.TotalBytes(), 2 * (100 + 64) * 8u);
}

TEST(ChunkedStoreTest, PutDeltaAndDeltaBetweenRoundTrip) {
  snapshot::SnapshotStore store(1);
  Rng rng(6);
  HardwareState a = RandomState(&rng, 40, {16});
  auto id_a = store.Put(a, "a").value();

  HardwareState b = a;
  b.flops[0] = 111;
  b.memories[0][15] = 222;
  auto d = sim::DiffStates(a, b);
  ASSERT_TRUE(d.ok());
  auto id_b = store.PutDelta(id_a, d.value(), "b");
  ASSERT_TRUE(id_b.ok());
  EXPECT_EQ(store.Get(id_b.value()).value().state, b);

  auto back = store.DeltaBetween(id_b.value(), id_a);
  ASSERT_TRUE(back.ok());
  HardwareState rebuilt = b;
  ASSERT_TRUE(sim::ApplyDeltaToState(&rebuilt, back.value()).ok());
  EXPECT_EQ(rebuilt, a);
}

TEST(ChunkedStoreTest, PutDeltaRejectsWrongBaseHash) {
  snapshot::SnapshotStore store(1);
  Rng rng(7);
  HardwareState a = RandomState(&rng, 16, {});
  auto id_a = store.Put(a, "a").value();
  StateDelta d = sim::EmptyDeltaFor(a);
  d.base_hash = 0x1234;  // not a's content hash
  EXPECT_FALSE(store.PutDelta(id_a, d).ok());
}

TEST(ChunkedStoreTest, DeltaBetweenSelfIsTheEmptyRevertDelta) {
  // The tracker's revert rung restores its live base with this delta.
  snapshot::SnapshotStore store(1);
  Rng rng(8);
  HardwareState a = RandomState(&rng, 40, {16, 3});
  auto id_a = store.Put(a, "a").value();
  auto d = store.DeltaBetween(id_a, id_a);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().chunks.empty());
  EXPECT_EQ(d.value().base_hash, store.ContentHash(id_a).value());
  EXPECT_EQ(d.value().base_hash, sim::HashState(a));
  StateDelta expected = sim::EmptyDeltaFor(a);
  expected.base_hash = sim::HashState(a);
  EXPECT_EQ(d.value(), expected);
}

TEST(ChunkedStoreTest, RandomForkTreeMatchesReferenceStore) {
  // Random fork tree over the store's delta API, checked against a naive
  // map of full states.
  snapshot::SnapshotStore store(1);
  Rng rng(0xF0F0);
  const size_t kFlops = 64;
  const std::vector<size_t> kMems = {32, 8};

  std::map<snapshot::SnapshotId, HardwareState> reference;
  HardwareState root = RandomState(&rng, kFlops, kMems);
  auto root_id = store.Put(root, "root").value();
  reference[root_id] = root;
  std::vector<snapshot::SnapshotId> ids = {root_id};

  for (unsigned step = 0; step < 60; ++step) {
    const auto base_id = ids[rng.Below(ids.size())];
    HardwareState next = reference[base_id];
    // Mutate a few random words.
    for (unsigned m = 0; m < 1 + rng.Below(4); ++m) {
      if (rng.Below(2) == 0) {
        next.flops[rng.Below(kFlops)] = rng.Bits(32);
      } else {
        auto& mem = next.memories[rng.Below(kMems.size())];
        if (!mem.empty()) mem[rng.Below(mem.size())] = rng.Bits(32);
      }
    }
    auto d = sim::DiffStates(reference[base_id], next);
    ASSERT_TRUE(d.ok());
    switch (rng.Below(3)) {
      case 0: {  // fork: new snapshot from base + delta
        auto id = store.PutDelta(base_id, d.value());
        ASSERT_TRUE(id.ok());
        reference[id.value()] = next;
        ids.push_back(id.value());
        break;
      }
      case 1: {  // update an existing snapshot to base + delta
        const auto victim = ids[rng.Below(ids.size())];
        ASSERT_TRUE(store.UpdateDelta(victim, base_id, d.value()).ok());
        reference[victim] = next;
        break;
      }
      default: {  // full put (mixes full and delta ingestion)
        auto id = store.Put(next).value();
        reference[id] = next;
        ids.push_back(id);
        break;
      }
    }
    // Occasionally drop a non-root snapshot.
    if (ids.size() > 4 && rng.Below(4) == 0) {
      const size_t victim = 1 + rng.Below(ids.size() - 1);
      ASSERT_TRUE(store.Drop(ids[victim]).ok());
      reference.erase(ids[victim]);
      ids.erase(ids.begin() + static_cast<long>(victim));
    }
  }

  // Every surviving snapshot materializes exactly to its reference state,
  // and DeltaBetween between random pairs reconstructs correctly.
  for (auto id : ids) {
    auto snap = store.Get(id);
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap.value().state, reference[id]) << "id " << id;
  }
  for (unsigned probe = 0; probe < 20; ++probe) {
    const auto from = ids[rng.Below(ids.size())];
    const auto to = ids[rng.Below(ids.size())];
    auto d = store.DeltaBetween(from, to);
    ASSERT_TRUE(d.ok());
    HardwareState rebuilt = reference[from];
    ASSERT_TRUE(sim::ApplyDeltaToState(&rebuilt, d.value()).ok());
    EXPECT_EQ(rebuilt, reference[to]);
  }
  EXPECT_LE(store.ResidentBytes(), store.TotalBytes());
}

// ---------------------------------------------------------------------------
// Delta blob serialization edges.

StateDelta SampleDelta() {
  StateDelta d;
  d.base_hash = 0xabcdef;
  d.shape = {20, {10, 3}};
  static_assert(sim::kChunkWords == 4, "fixture hardcodes 4-word chunks");
  d.chunks.push_back({0, 1, {1, 2, 3, 4}});   // full flop chunk
  d.chunks.push_back({0, 4, {9, 10, 11, 12}});  // last flop chunk (words 16..19)
  d.chunks.push_back({1, 2, {13, 14}});       // mem 0 tail chunk (10 - 8)
  d.chunks.push_back({2, 0, {15, 16, 17}});   // mem 1 (whole space, short)
  return d;
}

TEST(DeltaSerializeTest, RoundTrip) {
  StateDelta d = SampleDelta();
  auto blob = snapshot::SerializeStateDelta(d);
  auto back = snapshot::DeserializeStateDelta(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), d);
}

TEST(DeltaSerializeTest, RejectsGarbageAndWrongMagic) {
  EXPECT_FALSE(snapshot::DeserializeStateDelta({1, 2, 3}).ok());
  auto blob = snapshot::SerializeStateDelta(SampleDelta());
  blob[0] ^= 0xff;  // corrupt the magic
  EXPECT_FALSE(snapshot::DeserializeStateDelta(blob).ok());
  // A full-state blob is not a delta blob.
  HardwareState st;
  st.flops = {1, 2};
  EXPECT_FALSE(
      snapshot::DeserializeStateDelta(snapshot::SerializeState(st)).ok());
}

TEST(DeltaSerializeTest, RejectsTruncationAtEveryLength) {
  auto blob = snapshot::SerializeStateDelta(SampleDelta());
  for (size_t len = 0; len < blob.size(); len += 7) {
    std::vector<uint8_t> cut(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(snapshot::DeserializeStateDelta(cut).ok()) << len;
  }
}

TEST(DeltaSerializeTest, RejectsTrailingBytes) {
  auto blob = snapshot::SerializeStateDelta(SampleDelta());
  blob.push_back(0);
  EXPECT_FALSE(snapshot::DeserializeStateDelta(blob).ok());
}

// `d` three times, its last chunk broken in each way StateShape::Check
// rejects: a space out of range, an index out of range, a short payload.
std::vector<StateDelta> MalformedTails(const StateDelta& d) {
  std::vector<StateDelta> bad(3, d);
  const sim::DeltaChunk& last = d.chunks.back();
  bad[0].chunks.back().space = d.shape.num_spaces();
  bad[1].chunks.back().index = sim::NumChunks(d.shape.SpaceWords(last.space));
  bad[2].chunks.back().words.pop_back();
  return bad;
}

TEST(DeltaSerializeTest, RejectsBadChunkGeometry) {
  StateDelta bad = SampleDelta();
  bad.chunks[0].space = 7;  // no such space
  EXPECT_FALSE(
      snapshot::DeserializeStateDelta(snapshot::SerializeStateDelta(bad))
          .ok());
  bad = SampleDelta();
  bad.chunks[0].index = 40;  // chunk index past the flop space
  EXPECT_FALSE(
      snapshot::DeserializeStateDelta(snapshot::SerializeStateDelta(bad))
          .ok());
  bad = SampleDelta();
  bad.chunks[0].words.pop_back();  // payload shorter than the chunk
  EXPECT_FALSE(
      snapshot::DeserializeStateDelta(snapshot::SerializeStateDelta(bad))
          .ok());
  // The same faults in the last chunk, after valid ones.
  for (const StateDelta& tail : MalformedTails(SampleDelta())) {
    EXPECT_EQ(snapshot::DeserializeStateDelta(
                  snapshot::SerializeStateDelta(tail))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DeltaSerializeTest, MismatchedBaseRejectedAtApply) {
  // A valid blob applied to the wrong base state fails the hash check.
  Rng rng(11);
  HardwareState a = RandomState(&rng, 20, {10, 3});
  HardwareState b = a;
  b.flops[5] ^= 0xff;
  auto d = sim::DiffStates(a, b);
  ASSERT_TRUE(d.ok());
  auto blob = snapshot::SerializeStateDelta(d.value());
  auto decoded = snapshot::DeserializeStateDelta(blob);
  ASSERT_TRUE(decoded.ok());
  HardwareState wrong_base = a;
  wrong_base.memories[0][0] ^= 1;
  EXPECT_FALSE(sim::ApplyDeltaToState(&wrong_base, decoded.value()).ok());
  HardwareState right_base = a;
  ASSERT_TRUE(sim::ApplyDeltaToState(&right_base, decoded.value()).ok());
  EXPECT_EQ(right_base, b);
}

// ---------------------------------------------------------------------------
// A delta whose last chunk is malformed is rejected whole: every consumer
// checks all of it before writing, so the chunks before the bad one never
// land either.

// A two-chunk delta from `a`: one flop chunk, then one memory chunk.
StateDelta TwoChunkDelta(const HardwareState& a) {
  HardwareState b = a;
  b.flops[0] ^= 1;
  b.memories[0][0] ^= 1;
  auto d = sim::DiffStates(a, b);
  HS_CHECK(d.ok() && d.value().chunks.size() == 2);
  return std::move(d).value();
}

TEST(MalformedDeltaTest, ApplyDeltaToStateLeavesTheTargetUnchanged) {
  Rng rng(21);
  const HardwareState a = RandomState(&rng, 20, {10, 3});
  for (const StateDelta& bad : MalformedTails(TwoChunkDelta(a))) {
    HardwareState target = a;
    EXPECT_EQ(sim::ApplyDeltaToState(&target, bad).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(target, a);
  }
}

TEST(MalformedDeltaTest, RestoreDeltaLeavesLiveStateAndSyncPointUnchanged) {
  auto sim_or = sim::Simulator::Create(Soc());
  ASSERT_TRUE(sim_or.ok());
  sim::Simulator sim = std::move(sim_or).value();
  ASSERT_TRUE(sim.Reset().ok());
  sim.MarkSynced();
  const HardwareState at_sync = sim.DumpState();
  Rng rng(5);
  RandomStimulus(&sim, &rng, 15, 0x400);
  const HardwareState drifted = sim.DumpState();
  ASSERT_NE(drifted, at_sync);

  StateDelta d = TwoChunkDelta(at_sync);
  for (const StateDelta& bad : MalformedTails(d)) {
    EXPECT_EQ(sim.RestoreDelta(bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(sim.DumpState(), drifted);
  }
  // The sync point and its dirty bits survived: the next capture is still
  // the whole drift, against the same base.
  StateDelta drift = sim.CaptureDelta();
  EXPECT_EQ(drift.base_hash, sim::HashState(at_sync));
  HardwareState rebuilt = at_sync;
  ASSERT_TRUE(sim::ApplyDeltaToState(&rebuilt, drift).ok());
  EXPECT_EQ(rebuilt, drifted);
}

TEST(MalformedDeltaTest, PutDeltaLeavesTheStoreUnchanged) {
  Rng rng(22);
  const HardwareState a = RandomState(&rng, 20, {10, 3});
  snapshot::SnapshotStore store(0);
  auto base = store.Put(a);
  ASSERT_TRUE(base.ok());
  const auto stats = store.stats();
  const size_t resident = store.ResidentBytes();
  for (const StateDelta& bad : MalformedTails(TwoChunkDelta(a))) {
    EXPECT_EQ(store.PutDelta(base.value(), bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(store.Ids(), std::vector<snapshot::SnapshotId>{base.value()});
    EXPECT_EQ(store.stats().chunks_stored, stats.chunks_stored);
    EXPECT_EQ(store.stats().chunks_shared, stats.chunks_shared);
    EXPECT_EQ(store.ResidentBytes(), resident);
    EXPECT_EQ(store.Get(base.value()).value().state, a);
  }
}

// A rejected delta takes no snapshot id: ids stay dense, so the HSST image
// of a store does not depend on how many deltas were refused on the way.
TEST(MalformedDeltaTest, RejectedPutDeltaTakesNoId) {
  Rng rng(23);
  const HardwareState a = RandomState(&rng, 20, {10, 3});
  snapshot::SnapshotStore store(0);
  auto first = store.Put(a);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  StateDelta wrong_base = TwoChunkDelta(a);
  wrong_base.base_hash = sim::HashState(a) ^ 1;
  EXPECT_EQ(store.PutDelta(first.value(), wrong_base).status().code(),
            StatusCode::kInvalidArgument);
  auto second = store.Put(a);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 2u);
}

// RestoreDelta truncates memory words to the memory's width, exactly as
// RestoreState does (a remote kRestoreDelta decodes geometry, not widths).
TEST(MalformedDeltaTest, RestoreDeltaTruncatesMemoryWordsToWidth) {
  auto sim_or = sim::Simulator::Create(Soc());
  ASSERT_TRUE(sim_or.ok());
  sim::Simulator sim = std::move(sim_or).value();
  ASSERT_TRUE(sim.Reset().ok());
  sim.MarkSynced();
  const uint32_t mem = sim.design().FindMemory("u_uart.tx_fifo");
  ASSERT_NE(mem, rtl::kInvalidId);
  const HardwareState at_sync = sim.DumpState();
  HardwareState wide = at_sync;
  wide.memories[mem][0] = ~uint64_t{0};

  auto d = sim::DiffStates(at_sync, wide);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(sim.RestoreDelta(d.value()).ok());
  EXPECT_EQ(sim.PeekMemory("u_uart.tx_fifo", 0).value(), 0xffu);
  // The new sync point holds the truncated word too.
  EXPECT_EQ(sim.CaptureDelta().base_hash, sim::HashState(sim.DumpState()));

  ASSERT_TRUE(sim.RestoreState(wide).ok());
  EXPECT_EQ(sim.PeekMemory("u_uart.tx_fifo", 0).value(), 0xffu);
}

// ---------------------------------------------------------------------------
// End-to-end behavioral equivalence: delta routing on vs off.

symex::Report RunSymex(bus::HardwareTarget* target, bool use_delta) {
  symex::ExecOptions opts;
  opts.mode = symex::ConsistencyMode::kHardSnap;
  opts.use_device_slots = false;  // force host-side snapshot traffic
  opts.use_delta_snapshots = use_delta;
  opts.max_instructions = 400'000;
  symex::Executor ex(target, opts);
  auto img = vm::Assemble(firmware::BranchTreeFirmware(4, 20));
  HS_CHECK(img.ok());
  HS_CHECK(ex.LoadFirmware(img.value()).ok());
  ex.MakeSymbolicRegister(10, "input");
  auto report = ex.Run();
  HS_CHECK_MSG(report.ok(), report.status().ToString());
  return std::move(report).value();
}

TEST(DeltaEquivalenceTest, SymexDeltaOnOffIdenticalResults) {
  auto t_full = bus::SimulatorTarget::Create(Soc());
  auto t_delta = bus::SimulatorTarget::Create(Soc());
  ASSERT_TRUE(t_full.ok() && t_delta.ok());
  auto full = RunSymex(t_full.value().get(), false);
  auto delta = RunSymex(t_delta.value().get(), true);

  EXPECT_EQ(full.paths_completed, delta.paths_completed);
  EXPECT_EQ(full.paths_exited, delta.paths_exited);
  EXPECT_EQ(full.exit_codes, delta.exit_codes);
  EXPECT_EQ(full.forks, delta.forks);
  EXPECT_EQ(full.instructions, delta.instructions);
  EXPECT_EQ(full.covered_pcs, delta.covered_pcs);
  EXPECT_EQ(full.bugs.size(), delta.bugs.size());
  // And the delta path moved strictly fewer bytes over the link.
  EXPECT_LT(delta.snapshot_bytes_copied, full.snapshot_bytes_copied);
}

TEST(DeltaEquivalenceTest, SymexDeltaOnFpgaIdenticalResults) {
  auto t_full = fpga::FpgaTarget::Create(Soc());
  auto t_delta = fpga::FpgaTarget::Create(Soc());
  ASSERT_TRUE(t_full.ok() && t_delta.ok());
  auto full = RunSymex(t_full.value().get(), false);
  auto delta = RunSymex(t_delta.value().get(), true);
  EXPECT_EQ(full.paths_completed, delta.paths_completed);
  EXPECT_EQ(full.exit_codes, delta.exit_codes);
  EXPECT_EQ(full.covered_pcs, delta.covered_pcs);
  EXPECT_LT(delta.snapshot_bytes_copied, full.snapshot_bytes_copied);
}

TEST(DeltaEquivalenceTest, FuzzerDeltaOnOffIdenticalResults) {
  auto img = vm::Assemble(firmware::VulnerableParserFirmware());
  ASSERT_TRUE(img.ok());
  fuzz::FuzzStats stats[2];
  std::vector<fuzz::Crash> crashes[2];
  for (int use_delta = 0; use_delta < 2; ++use_delta) {
    auto target = bus::SimulatorTarget::Create(Soc());
    ASSERT_TRUE(target.ok());
    fuzz::FuzzOptions opts;
    opts.reset = fuzz::ResetStrategy::kSnapshotReset;
    opts.input_size = 2;
    opts.seed = 7;
    opts.use_delta_snapshots = use_delta != 0;
    fuzz::Fuzzer fuzzer(target.value().get(), img.value(), opts);
    auto st = fuzzer.Run(300);
    ASSERT_TRUE(st.ok());
    stats[use_delta] = st.value();
    crashes[use_delta] = fuzzer.crashes();
  }
  EXPECT_EQ(stats[0].edges_covered, stats[1].edges_covered);
  EXPECT_EQ(stats[0].corpus_size, stats[1].corpus_size);
  EXPECT_EQ(stats[0].total_instructions, stats[1].total_instructions);
  ASSERT_EQ(crashes[0].size(), crashes[1].size());
  for (size_t i = 0; i < crashes[0].size(); ++i) {
    EXPECT_EQ(crashes[0][i].pc, crashes[1][i].pc);
    EXPECT_EQ(crashes[0][i].input, crashes[1][i].input);
  }
  EXPECT_EQ(stats[1].delta_restores, stats[1].snapshot_restores);
  EXPECT_EQ(stats[0].delta_restores, 0u);
  EXPECT_LT(stats[1].snapshot_bytes_copied, stats[0].snapshot_bytes_copied);
}

}  // namespace
}  // namespace hardsnap
