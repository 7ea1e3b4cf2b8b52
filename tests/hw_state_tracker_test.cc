// HwStateTracker rungs that the executor and fuzzer suites do not reach
// on their own: SRAM slots running out mid-run, and a delta rung that
// fails on the device and falls back to a full transfer.
#include <gtest/gtest.h>

#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "snapshot/hw_state_tracker.h"

namespace hardsnap::snapshot {
namespace {

using Rung = HwStateTracker::Rung;

rtl::Design& Soc() {
  static rtl::Design* d = [] {
    auto r = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                                 "soc");
    HS_CHECK_MSG(r.ok(), r.status().ToString());
    return new rtl::Design(std::move(r).value());
  }();
  return *d;
}

constexpr uint32_t kTimerLoad = periph::timer_regs::kLoad;

std::unique_ptr<fpga::FpgaTarget> Fpga(unsigned sram_slots) {
  fpga::FpgaTargetOptions opts;
  opts.sram_slots = sram_slots;
  auto t = fpga::FpgaTarget::Create(Soc(), opts);
  HS_CHECK(t.ok());
  HS_CHECK(t.value()->ResetHardware().ok());
  return std::move(t).value();
}

uint32_t Load(bus::HardwareTarget* t) {
  auto v = t->Read32(kTimerLoad);
  HS_CHECK(v.ok());
  return v.value();
}

TEST(HwStateTrackerTest, SlotExhaustionMidRunFallsBackToHost) {
  auto target = Fpga(/*sram_slots=*/1);
  HwStateTracker hw(target.get(), /*use_device_slots=*/true,
                    /*use_delta_snapshots=*/true);

  HwHandle a, b, c;
  ASSERT_TRUE(target->Write32(kTimerLoad, 11).ok());
  ASSERT_TRUE(hw.Save(&a).ok());
  EXPECT_EQ(a.slot, 0);
  EXPECT_EQ(a.snapshot, kNoSnapshot);

  // The only slot is taken: b goes to the host store with a full transfer,
  // which must not touch a's slot.
  ASSERT_TRUE(target->Write32(kTimerLoad, 22).ok());
  ASSERT_TRUE(hw.Save(&b).ok());
  EXPECT_EQ(b.slot, -1);
  EXPECT_NE(b.snapshot, kNoSnapshot);

  ASSERT_TRUE(target->Write32(kTimerLoad, 33).ok());
  auto rung = hw.Restore(a);
  ASSERT_TRUE(rung.ok());
  EXPECT_EQ(rung.value(), Rung::kSlot);
  EXPECT_EQ(Load(target.get()), 11u);

  // The slot restore moved the live state behind the host's back, so b
  // cannot be a delta against the old base.
  rung = hw.Restore(b);
  ASSERT_TRUE(rung.ok());
  EXPECT_EQ(rung.value(), Rung::kFull);
  EXPECT_EQ(Load(target.get()), 22u);

  // Releasing a frees its slot for the next capture.
  hw.Release(&a);
  EXPECT_EQ(a.slot, -1);
  EXPECT_EQ(a.snapshot, kNoSnapshot);
  ASSERT_TRUE(hw.Save(&c).ok());
  EXPECT_EQ(c.slot, 0);
}

TEST(HwStateTrackerTest, FailedDeltaRestoreFallsBackToFull) {
  auto target = Fpga(/*sram_slots=*/0);
  HwStateTracker hw(target.get(), /*use_device_slots=*/true,
                    /*use_delta_snapshots=*/true);

  HwHandle a, b;
  ASSERT_TRUE(target->Write32(kTimerLoad, 11).ok());
  ASSERT_TRUE(hw.Save(&a).ok());  // full: no live base yet
  ASSERT_TRUE(target->Write32(kTimerLoad, 22).ok());
  ASSERT_TRUE(hw.Save(&b).ok());  // delta against a
  EXPECT_EQ(hw.store().size(), 2u);

  // A reset the tracker does not see drops the device's delta mirror: the
  // sibling delta is refused and a full upload takes over.
  ASSERT_TRUE(target->ResetHardware().ok());
  auto rung = hw.Restore(a);
  ASSERT_TRUE(rung.ok());
  EXPECT_EQ(rung.value(), Rung::kFull);
  EXPECT_EQ(Load(target.get()), 11u);

  // Same for the empty-delta revert of the live base itself.
  ASSERT_TRUE(target->ResetHardware().ok());
  rung = hw.Restore(a);
  ASSERT_TRUE(rung.ok());
  EXPECT_EQ(rung.value(), Rung::kFull);
  EXPECT_EQ(Load(target.get()), 11u);

  // With the mirror back, the cheap rungs serve again.
  rung = hw.Restore(b);
  ASSERT_TRUE(rung.ok());
  EXPECT_EQ(rung.value(), Rung::kDelta);
  EXPECT_EQ(Load(target.get()), 22u);
  rung = hw.Restore(b);
  ASSERT_TRUE(rung.ok());
  EXPECT_EQ(rung.value(), Rung::kRevert);
}

TEST(HwStateTrackerTest, ReleasedLiveBaseIsRetainedForTheNextSibling) {
  auto target = Fpga(/*sram_slots=*/0);
  HwStateTracker hw(target.get(), /*use_device_slots=*/false,
                    /*use_delta_snapshots=*/true);

  HwHandle a, b;
  ASSERT_TRUE(target->Write32(kTimerLoad, 11).ok());
  ASSERT_TRUE(hw.Save(&a).ok());
  ASSERT_TRUE(target->Write32(kTimerLoad, 22).ok());
  ASSERT_TRUE(hw.Save(&b).ok());  // b is now the live base

  hw.Release(&b);
  EXPECT_EQ(hw.store().size(), 2u);  // kept as the retained base
  auto rung = hw.Restore(a);
  ASSERT_TRUE(rung.ok());
  EXPECT_EQ(rung.value(), Rung::kDelta);
  EXPECT_EQ(Load(target.get()), 11u);
  EXPECT_EQ(hw.store().size(), 1u);  // dropped once the base moved on
}

}  // namespace
}  // namespace hardsnap::snapshot
