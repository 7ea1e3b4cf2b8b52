#include <gtest/gtest.h>
#include "firmware/corpus.h"

#include "bus/recording_target.h"
#include "bus/sim_target.h"
#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "symex/executor.h"
#include "vm/assembler.h"

namespace hardsnap::bus {
namespace {

rtl::Design& Soc() {
  static rtl::Design* d = [] {
    auto r = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                                 "soc");
    HS_CHECK_MSG(r.ok(), r.status().ToString());
    return new rtl::Design(std::move(r).value());
  }();
  return *d;
}

uint32_t TimerAddr(uint32_t reg) { return (0u << 8) | reg; }

TEST(RecordingTargetTest, LogsInteractions) {
  auto inner = SimulatorTarget::Create(Soc());
  ASSERT_TRUE(inner.ok());
  RecordingTarget rec(inner.value().get());
  ASSERT_TRUE(rec.ResetHardware().ok());
  ASSERT_TRUE(rec.Write32(TimerAddr(periph::timer_regs::kLoad), 42).ok());
  (void)rec.Read32(TimerAddr(periph::timer_regs::kLoad));
  ASSERT_TRUE(rec.Run(10).ok());
  ASSERT_TRUE(rec.Run(5).ok());  // coalesces with the previous span
  ASSERT_EQ(rec.log().size(), 3u);
  EXPECT_EQ(rec.log()[0].kind, IoRecord::Kind::kWrite);
  EXPECT_EQ(rec.log()[1].kind, IoRecord::Kind::kRead);
  EXPECT_EQ(rec.log()[1].value, 42u);
  EXPECT_EQ(rec.log()[2].cycles, 15u);
}

TEST(RecordingTargetTest, ReplayReconstructsState) {
  auto inner = SimulatorTarget::Create(Soc());
  ASSERT_TRUE(inner.ok());
  RecordingTarget rec(inner.value().get());
  ASSERT_TRUE(rec.ResetHardware().ok());
  // Drive a deterministic sequence: program + run the timer.
  ASSERT_TRUE(rec.Write32(TimerAddr(periph::timer_regs::kLoad), 100).ok());
  ASSERT_TRUE(rec.Write32(TimerAddr(periph::timer_regs::kCtrl), 0b01).ok());
  ASSERT_TRUE(rec.Run(25).ok());
  const size_t mark = rec.Mark();
  const uint32_t value_at_mark =
      rec.Read32(TimerAddr(periph::timer_regs::kValue)).value();

  // Diverge, then replay back to the mark.
  ASSERT_TRUE(rec.Run(500).ok());
  ASSERT_TRUE(rec.ReplayTo(mark).ok());
  EXPECT_EQ(rec.Read32(TimerAddr(periph::timer_regs::kValue)).value(),
            value_at_mark);
}

TEST(RecordingTargetTest, ReplayDivergenceDetected) {
  auto inner = SimulatorTarget::Create(Soc());
  ASSERT_TRUE(inner.ok());
  RecordingTarget rec(inner.value().get());
  ASSERT_TRUE(rec.ResetHardware().ok());
  // Out-of-band state the recorder never saw (the "error-prone" part of
  // record/replay: anything a reset cannot reproduce breaks it). Here the
  // prescaler was set by some unrecorded agent before recording began.
  ASSERT_TRUE(inner.value()
                  ->simulator()
                  ->PokeRegister("u_timer.prescale", 3)
                  .ok());
  ASSERT_TRUE(rec.Write32(TimerAddr(periph::timer_regs::kLoad), 50).ok());
  ASSERT_TRUE(rec.Write32(TimerAddr(periph::timer_regs::kCtrl), 0b01).ok());
  ASSERT_TRUE(rec.Run(8).ok());
  (void)rec.Read32(TimerAddr(periph::timer_regs::kValue));
  const size_t mark = rec.Mark();
  // Replay reboots the device, losing the unrecorded prescaler value: the
  // countdown runs 4x faster and the recorded VALUE read cannot match.
  auto status = rec.ReplayTo(mark);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("diverged"), std::string::npos);
}

TEST(RecordingTargetTest, ReplayCostGrowsLinearly) {
  auto inner = fpga::FpgaTarget::Create(Soc());
  ASSERT_TRUE(inner.ok());
  RecordingTarget rec(inner.value().get());
  ASSERT_TRUE(rec.ResetHardware().ok());
  auto do_io = [&](unsigned n) {
    for (unsigned i = 0; i < n; ++i)
      ASSERT_TRUE(
          rec.Write32(TimerAddr(periph::timer_regs::kPrescale), i).ok());
  };
  do_io(10);
  const size_t mark10 = rec.Mark();
  do_io(90);
  const size_t mark100 = rec.Mark();

  const Duration t0 = inner.value()->clock().now();
  ASSERT_TRUE(rec.ReplayTo(mark10).ok());
  const Duration cost10 = inner.value()->clock().now() - t0;
  // Note: ReplayTo truncated the log to mark10; rebuild to 100.
  do_io(90);
  const Duration t1 = inner.value()->clock().now();
  ASSERT_TRUE(rec.ReplayTo(mark100).ok());
  const Duration cost100 = inner.value()->clock().now() - t1;
  EXPECT_GT(cost100.picos(), cost10.picos() * 5);
}

TEST(SlotExecutionTest, ExecutorUsesDeviceSlotsOnFpga) {
  auto target = fpga::FpgaTarget::Create(Soc());
  ASSERT_TRUE(target.ok());
  symex::ExecOptions opts;
  opts.use_device_slots = true;
  opts.max_instructions = 300000;
  symex::Executor ex(target.value().get(), opts);
  auto img = vm::Assemble(R"(
    _start:
      li t0, 10
      blt a0, t0, low
      li a1, 1
      j out
    low:
      li a1, 2
    out:
      li t0, 0x50000004
      sw a1, 0(t0)
  )");
  ASSERT_TRUE(img.ok());
  ASSERT_TRUE(ex.LoadFirmware(img.value()).ok());
  ex.MakeSymbolicRegister(10, "x");
  auto report = ex.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().paths_completed, 2u);
  // With slots, snapshots stayed on-device: the target performed slot
  // saves/restores but no bulk downloads.
  EXPECT_GT(target.value()->stats().snapshots_saved, 0u);
}

// Wherever snapshots live — no slots, fewer slots than live states (slots
// run out mid-run and host transfers take over), or plenty — the analysis
// must reach the host-only verdict. Full host transfers must not clobber
// a state's slot, and a forked state must not share its parent's host
// snapshot.
TEST(SlotExecutionTest, SlotModeMatchesHostModeResults) {
  // The host-only run is checked against each firmware's known verdict
  // too, so the slot runs cannot agree with a wrong reference.
  struct Case {
    const char* name;
    std::string source;
    size_t paths;
    size_t bugs;
  };
  const Case firmwares[] = {
      {"fig1", firmware::Fig1ConsistencyFirmware(), 2, 1},  // planted bug
      {"tree", firmware::BranchTreeFirmware(5, 4), 32, 0},  // 2^5 paths
  };
  for (const auto& [fw_name, source, want_paths, want_bugs] : firmwares) {
    auto img = vm::Assemble(source);
    ASSERT_TRUE(img.ok());
    for (auto search : {symex::SearchStrategy::kBfs,
                        symex::SearchStrategy::kDfs}) {
      auto run = [&](bool slots, unsigned sram_slots) {
        fpga::FpgaTargetOptions topts;
        topts.sram_slots = sram_slots;
        auto target = fpga::FpgaTarget::Create(Soc(), topts);
        HS_CHECK(target.ok());
        symex::ExecOptions opts;
        opts.use_device_slots = slots;
        opts.search = search;
        opts.max_instructions = 2000000;
        symex::Executor ex(target.value().get(), opts);
        HS_CHECK(ex.LoadFirmware(img.value()).ok());
        ex.MakeSymbolicRegister(10, "req");
        return ex.Run();
      };
      auto host = run(false, 32);
      ASSERT_TRUE(host.ok()) << host.status().ToString();
      EXPECT_EQ(host.value().paths_completed, want_paths) << fw_name;
      EXPECT_EQ(host.value().bugs.size(), want_bugs) << fw_name;
      for (unsigned sram_slots : {0u, 1u, 2u, 3u, 32u}) {
        const std::string where = std::string(fw_name) + " search=" +
                                  symex::SearchStrategyName(search) +
                                  " sram_slots=" + std::to_string(sram_slots);
        auto report = run(true, sram_slots);
        ASSERT_TRUE(report.ok()) << where << ": "
                                 << report.status().ToString();
        const symex::Report& r = report.value();
        ASSERT_EQ(r.bugs.size(), host.value().bugs.size()) << where;
        for (size_t i = 0; i < r.bugs.size(); ++i) {
          EXPECT_EQ(r.bugs[i].pc, host.value().bugs[i].pc) << where;
          EXPECT_EQ(r.bugs[i].kind, host.value().bugs[i].kind) << where;
        }
        EXPECT_EQ(r.paths_completed, host.value().paths_completed) << where;
        EXPECT_EQ(r.exit_codes, host.value().exit_codes) << where;
        EXPECT_EQ(r.console, host.value().console) << where;
      }
    }
  }
}

}  // namespace
}  // namespace hardsnap::bus
