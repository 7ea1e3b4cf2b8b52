#include <gtest/gtest.h>

#include "bus/sim_target.h"
#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "snapshot/orchestrator.h"
#include "snapshot/snapshot.h"

namespace hardsnap::snapshot {
namespace {

rtl::Design SocDesign() {
  auto d = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()), "soc");
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

sim::HardwareState SampleState() {
  sim::HardwareState st;
  st.flops = {1, 2, 3, 0xdeadbeef};
  st.memories = {{10, 20, 30}, {}};
  return st;
}

TEST(SerializeTest, RoundTrip) {
  auto st = SampleState();
  auto bytes = SerializeState(st);
  auto back = DeserializeState(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), st);
}

TEST(SerializeTest, RejectsGarbage) {
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5};
  EXPECT_FALSE(DeserializeState(junk).ok());
}

TEST(SerializeTest, RejectsTruncation) {
  auto bytes = SerializeState(SampleState());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeState(bytes).ok());
}

TEST(SerializeTest, RejectsTrailingBytes) {
  auto bytes = SerializeState(SampleState());
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeState(bytes).ok());
}

TEST(StoreTest, PutGetUpdateDrop) {
  SnapshotStore store(42);
  SnapshotId id = store.Put(SampleState(), "initial").value();
  EXPECT_NE(id, kNoSnapshot);
  auto snap = store.Get(id);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().id, id);
  EXPECT_EQ(snap.value().shape_digest, 42u);
  EXPECT_EQ(snap.value().label, "initial");
  EXPECT_EQ(snap.value().state, SampleState());

  auto st2 = SampleState();
  st2.flops[0] = 99;
  ASSERT_TRUE(store.Update(id, st2).ok());
  EXPECT_EQ(store.Get(id).value().state.flops[0], 99u);
  EXPECT_EQ(store.Get(id).value().label, "initial");  // Update keeps it

  ASSERT_TRUE(store.Drop(id).ok());
  EXPECT_FALSE(store.Get(id).ok());
  EXPECT_FALSE(store.Drop(id).ok());
}

TEST(StoreTest, IdsAreUniqueAndNonZero) {
  SnapshotStore store(1);
  SnapshotId a = store.Put(SampleState()).value();
  SnapshotId b = store.Put(SampleState()).value();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNoSnapshot);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_GT(store.TotalBytes(), 0u);
}

TEST(ShapeDigestTest, DiffersAcrossDesigns) {
  auto soc = SocDesign();
  auto timer = rtl::CompileVerilog(periph::TimerVerilog(), "hs_timer");
  ASSERT_TRUE(timer.ok());
  EXPECT_NE(StateShapeDigest(soc), StateShapeDigest(timer.value()));
  EXPECT_EQ(StateShapeDigest(soc), StateShapeDigest(SocDesign()));
}

TEST(OrchestratorTest, MoveToTransfersLiveState) {
  auto soc = SocDesign();
  auto st = bus::SimulatorTarget::Create(soc);
  auto ft = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(st.ok() && ft.ok());
  TargetOrchestrator orch({st.value().get(), ft.value().get()});
  ASSERT_TRUE(orch.active().ResetHardware().ok());

  const uint32_t timer_load = (0u << 8) | periph::timer_regs::kLoad;
  ASSERT_TRUE(orch.active().Write32(timer_load, 777).ok());
  EXPECT_EQ(orch.active().kind(), bus::TargetKind::kSimulator);

  auto fpga_idx = orch.IndexOf(bus::TargetKind::kFpga);
  ASSERT_TRUE(fpga_idx.ok());
  ASSERT_TRUE(orch.MoveTo(fpga_idx.value()).ok());
  EXPECT_EQ(orch.active().kind(), bus::TargetKind::kFpga);
  EXPECT_EQ(orch.active().Read32(timer_load).value(), 777u);

  // And back again.
  ASSERT_TRUE(orch.MoveTo(0).ok());
  EXPECT_EQ(orch.active().Read32(timer_load).value(), 777u);
}

TEST(SerializeTest, SerializedStateBytesMatchesEncoding) {
  // The orchestrator accounts full-ship costs arithmetically; the formula
  // must track the real encoder exactly.
  EXPECT_EQ(SerializedStateBytes(SampleState()),
            SerializeState(SampleState()).size());
  sim::HardwareState empty;
  EXPECT_EQ(SerializedStateBytes(empty), SerializeState(empty).size());
  sim::HardwareState odd;
  odd.flops = {1};
  odd.memories = {{}, {5}, {6, 7, 8, 9, 10}};
  EXPECT_EQ(SerializedStateBytes(odd), SerializeState(odd).size());
}

// Regression: repeat migrations used to ship a delta whenever the
// host-side mirror existed, without checking what the destination
// actually holds. A destination driven behind the orchestrator's back
// has a diverged base, so the migration must fall back to a full ship.
TEST(OrchestratorTest, StaleDestinationBaseForcesFullShip) {
  auto soc = SocDesign();
  auto st = bus::SimulatorTarget::Create(soc);
  auto ft = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(st.ok() && ft.ok());
  TargetOrchestrator orch({st.value().get(), ft.value().get()});
  ASSERT_TRUE(orch.active().ResetHardware().ok());

  const uint32_t timer_load = (0u << 8) | periph::timer_regs::kLoad;
  ASSERT_TRUE(orch.active().Write32(timer_load, 777).ok());
  ASSERT_TRUE(orch.MoveTo(1).ok());  // full ship sim -> fpga
  ASSERT_TRUE(orch.MoveTo(0).ok());  // sim still on base: delta ship
  {
    const auto& ts = orch.transfer_stats();
    EXPECT_LT(ts.shipped_bytes, ts.full_bytes)
        << "second migration should have shipped a delta";
  }

  // Drive the INACTIVE destination directly — its state diverges from
  // the mirror the orchestrator would delta against.
  ASSERT_TRUE(orch.target(1).Write32(timer_load, 9999).ok());
  ASSERT_TRUE(orch.target(1).Run(16).ok());

  const auto before = orch.transfer_stats();
  ASSERT_TRUE(orch.active().Write32(timer_load, 777).ok());
  ASSERT_TRUE(orch.MoveTo(1).ok());
  const auto after = orch.transfer_stats();
  // The probe must have detected the diverged base and full-shipped:
  // bytes on the wire equal the full-blob accounting for this transfer.
  EXPECT_EQ(after.shipped_bytes - before.shipped_bytes,
            after.full_bytes - before.full_bytes);
  // And the destination holds the migrated state, not delta-corrupted mush.
  EXPECT_EQ(orch.active().Read32(timer_load).value(), 777u);
}

TEST(OrchestratorTest, InvalidateMirrorForcesFullShip) {
  auto soc = SocDesign();
  auto st = bus::SimulatorTarget::Create(soc);
  auto ft = fpga::FpgaTarget::Create(soc);
  ASSERT_TRUE(st.ok() && ft.ok());
  TargetOrchestrator orch({st.value().get(), ft.value().get()});
  ASSERT_TRUE(orch.active().ResetHardware().ok());

  const uint32_t timer_load = (0u << 8) | periph::timer_regs::kLoad;
  ASSERT_TRUE(orch.active().Write32(timer_load, 42).ok());
  ASSERT_TRUE(orch.MoveTo(1).ok());
  ASSERT_TRUE(orch.MoveTo(0).ok());

  orch.InvalidateMirror(1);
  const auto before = orch.transfer_stats();
  ASSERT_TRUE(orch.MoveTo(1).ok());
  const auto after = orch.transfer_stats();
  EXPECT_EQ(after.shipped_bytes - before.shipped_bytes,
            after.full_bytes - before.full_bytes);
  EXPECT_EQ(orch.active().Read32(timer_load).value(), 42u);
}

TEST(OrchestratorTest, MoveToSelfIsFree) {
  auto soc = SocDesign();
  auto st = bus::SimulatorTarget::Create(soc);
  ASSERT_TRUE(st.ok());
  TargetOrchestrator orch({st.value().get()});
  auto before = orch.TotalTime();
  ASSERT_TRUE(orch.MoveTo(0).ok());
  EXPECT_EQ(orch.TotalTime().picos(), before.picos());
}

TEST(OrchestratorTest, BadIndexRejected) {
  auto soc = SocDesign();
  auto st = bus::SimulatorTarget::Create(soc);
  ASSERT_TRUE(st.ok());
  TargetOrchestrator orch({st.value().get()});
  EXPECT_FALSE(orch.MoveTo(5).ok());
  EXPECT_FALSE(orch.IndexOf(bus::TargetKind::kFpga).ok());
}


// --- memory accounting & byte cap ------------------------------------------

TEST(StoreCapTest, TryPutFailsCleanlyWhenNothingCanBeEvicted) {
  SnapshotStore store(42);
  store.SetMaxBytes(1);  // smaller than any snapshot's resident bytes
  auto r = store.Put(SampleState(), "too big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // The failed ingestion left nothing behind.
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.ResidentBytes(), 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST(StoreCapTest, CapCountsSharedChunksOnce) {
  SnapshotStore store(42);
  const SnapshotId a = store.Put(SampleState(), "a").value();
  const size_t one = store.ResidentBytes();
  // A cap of exactly the resident bytes admits a second copy of the same
  // content (every chunk is shared) but not a state with a new chunk.
  store.SetMaxBytes(one);
  auto same = store.Put(SampleState(), "same");
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(store.ResidentBytes(), one);
  auto st2 = SampleState();
  st2.flops[0] = 0x12345678;
  auto r = store.Put(st2, "new chunk");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // A rejected Update keeps the old content and label.
  Status up = store.Update(a, st2);
  EXPECT_EQ(up.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.Get(a).value().state, SampleState());
  EXPECT_EQ(store.Get(a).value().label, "a");
  EXPECT_EQ(store.ResidentBytes(), one);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StoreCapTest, GetReturnsACopyThatLaterIngestsCannotChange) {
  SnapshotStore store(42);
  const SnapshotId a = store.Put(SampleState(), "a").value();
  auto st2 = SampleState();
  st2.flops[0] = 0x12345678;
  const SnapshotId b = store.Put(st2, "b").value();
  store.SetMaxBytes(store.ResidentBytes());
  auto ga = store.Get(a);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(store.Drop(b).ok());
  ASSERT_TRUE(store.Put(st2, "b again").ok());  // fits again after the drop
  ASSERT_TRUE(store.Drop(a).ok());
  ASSERT_TRUE(store.Put(SampleState(), "a again").ok());
  EXPECT_EQ(ga.value().state, SampleState());
  EXPECT_EQ(ga.value().label, "a");
}

TEST(StoreCapTest, UnlimitedByDefault) {
  SnapshotStore store(42);
  EXPECT_EQ(store.max_bytes(), 0u);
  for (int i = 0; i < 16; ++i) {
    auto st = SampleState();
    st.flops[0] = static_cast<uint64_t>(i);
    EXPECT_TRUE(store.Put(st).ok());
  }
  EXPECT_EQ(store.size(), 16u);
}

// --- whole-store serialization (HSST) --------------------------------------

TEST(StoreSerdeTest, SerializeRestoreRoundTripsContentAndIds) {
  SnapshotStore store(42);
  SnapshotId a = store.Put(SampleState(), "base").value();
  auto st2 = SampleState();
  st2.flops[1] = 0xfeedface;
  SnapshotId b = store.Put(st2, "variant").value();
  auto blob = store.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();

  SnapshotStore back(42);
  ASSERT_TRUE(back.Restore(blob.value()).ok());
  EXPECT_EQ(back.size(), 2u);
  auto ga = back.Get(a);
  ASSERT_TRUE(ga.ok());
  EXPECT_EQ(ga.value().state, SampleState());
  EXPECT_EQ(ga.value().label, "base");
  auto gb = back.Get(b);
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(gb.value().state, st2);
  EXPECT_EQ(gb.value().label, "variant");
  // Content hashes survive the round trip (resume drift checks rely on
  // them).
  EXPECT_EQ(back.ContentHash(a).value(), store.ContentHash(a).value());
  // New ids keep ascending past the restored ones.
  auto st3 = SampleState();
  st3.flops[2] = 7;
  SnapshotId c = back.Put(st3).value();
  EXPECT_GT(c, b);
}

TEST(StoreSerdeTest, EmptyStoreRoundTrips) {
  SnapshotStore store(42);
  auto blob = store.Serialize();
  ASSERT_TRUE(blob.ok());
  SnapshotStore back(42);
  ASSERT_TRUE(back.Restore(blob.value()).ok());
  EXPECT_EQ(back.size(), 0u);
  EXPECT_TRUE(back.Put(SampleState()).ok());
}

TEST(StoreSerdeTest, RestoreRejectsWrongShapeDigest) {
  SnapshotStore store(42);
  ASSERT_TRUE(store.Put(SampleState()).ok());
  auto blob = store.Serialize();
  ASSERT_TRUE(blob.ok());
  SnapshotStore other(43);
  EXPECT_FALSE(other.Restore(blob.value()).ok());
  EXPECT_EQ(other.size(), 0u);  // failed restore leaves the store empty
}

TEST(StoreSerdeTest, RestoreRejectsTruncationAndBitFlips) {
  SnapshotStore store(42);
  ASSERT_TRUE(store.Put(SampleState(), "a").ok());
  auto st2 = SampleState();
  st2.flops[0] = 5;
  ASSERT_TRUE(store.Put(st2, "b").ok());
  auto blob = store.Serialize();
  ASSERT_TRUE(blob.ok());
  const auto& bytes = blob.value();
  for (size_t len = 0; len < bytes.size(); len += 3) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    SnapshotStore back(42);
    EXPECT_FALSE(back.Restore(cut).ok()) << "truncation to " << len;
    EXPECT_EQ(back.size(), 0u);
  }
  for (size_t bit = 0; bit < bytes.size() * 8; bit += 11) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    SnapshotStore back(42);
    EXPECT_FALSE(back.Restore(corrupt).ok()) << "bit flip at " << bit;
  }
}

TEST(StoreSerdeTest, RestoreReplacesPriorContents) {
  SnapshotStore store(42);
  ASSERT_TRUE(store.Put(SampleState(), "kept").ok());
  auto blob = store.Serialize();
  ASSERT_TRUE(blob.ok());
  SnapshotStore back(42);
  ASSERT_TRUE(back.Put(SampleState(), "overwritten").ok());
  ASSERT_TRUE(back.Put(SampleState(), "also gone").ok());
  ASSERT_TRUE(back.Restore(blob.value()).ok());
  EXPECT_EQ(back.size(), 1u);
  auto ids = back.Ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(back.Get(ids[0]).value().label, "kept");
}

}  // namespace
}  // namespace hardsnap::snapshot
