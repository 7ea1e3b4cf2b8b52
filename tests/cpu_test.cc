#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <string>
#include <vector>

#include "bus/sim_target.h"
#include "common/rng.h"
#include "firmware/corpus.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "symex/executor.h"
#include "vm/cpu.h"
#include "vm/isa.h"

namespace hardsnap::vm {
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

std::unique_ptr<bus::SimulatorTarget> MakeTarget() {
  auto t = bus::SimulatorTarget::Create(Soc());
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

FirmwareImage Asm(const std::string& src) {
  auto img = Assemble(src);
  EXPECT_TRUE(img.ok()) << img.status().ToString();
  return img.value_or(FirmwareImage{});
}

TEST(CpuTest, ArithmeticAndExit) {
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(Asm(R"(
    _start:
      li a0, 100
      li a1, 58
      sub a0, a0, a1
      li t0, 0x50000004
      sw a0, 0(t0)
  )")).ok());
  auto out = cpu.Run(100);
  EXPECT_EQ(out.status, RunStatus::kExited);
  EXPECT_EQ(out.exit_code, 42u);
}

TEST(CpuTest, ConsoleAndRam) {
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(Asm(R"(
    _start:
      li t0, 0x50000000
      li t1, 65
      sw t1, 0(t0)
      li t2, 0x10000010
      li t3, 0xbeef
      sw t3, 0(t2)
      lhu a0, 0(t2)
      li t0, 0x50000004
      sw a0, 0(t0)
  )")).ok());
  auto out = cpu.Run(100);
  EXPECT_EQ(out.status, RunStatus::kExited);
  EXPECT_EQ(out.exit_code, 0xbeefu);
  EXPECT_EQ(cpu.console(), "A");
}

TEST(CpuTest, MmioDrivesPeripherals) {
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(Asm(firmware::AesSelfTestFirmware())).ok());
  auto out = cpu.Run(100000);
  EXPECT_EQ(out.status, RunStatus::kExited) << out.reason;
  EXPECT_EQ(out.exit_code, 0u);
}

TEST(CpuTest, InterruptsServed) {
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(
      cpu.LoadFirmware(Asm(firmware::TimerInterruptFirmware(2))).ok());
  auto out = cpu.Run(50000);
  EXPECT_EQ(out.status, RunStatus::kExited) << out.reason;
}

TEST(CpuTest, FaultsAreReported) {
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(Asm(R"(
    _start:
      li t0, 0x30000000
      sw zero, 0(t0)
  )")).ok());
  auto out = cpu.Run(100);
  EXPECT_EQ(out.status, RunStatus::kBug);
  EXPECT_EQ(out.reason, "out-of-bounds store");
}

TEST(CpuTest, SnapshotRestoreReplays) {
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(Asm(R"(
    _start:
      li t0, 0x40000000
      li t1, 50
      sw t1, 4(t0)       # timer LOAD
      li t1, 1
      sw t1, 0(t0)       # enable
    spin:
      lw t2, 0x10(t0)
      bnez t2, spin
      li t0, 0x50000004
      sw zero, 0(t0)
  )")).ok());
  // Run a while, snapshot SW+HW, run to completion, restore, re-run.
  auto out = cpu.Run(40);
  ASSERT_EQ(out.status, RunStatus::kRunning);
  auto sw = cpu.SnapshotSoftware();
  auto hw = target->SaveState();
  ASSERT_TRUE(hw.ok());

  auto out1 = cpu.Run(100000);
  EXPECT_EQ(out1.status, RunStatus::kExited);
  const uint64_t icount1 = cpu.state().icount;

  cpu.RestoreSoftware(sw);
  ASSERT_TRUE(target->RestoreState(hw.value()).ok());
  auto out2 = cpu.Run(100000);
  EXPECT_EQ(out2.status, RunStatus::kExited);
  EXPECT_EQ(cpu.state().icount, icount1);  // identical replay length
}

TEST(CpuTest, CoverageLogRecordsEdges) {
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(Asm(R"(
    _start:
      li t0, 3
    loop:
      addi t0, t0, -1
      bnez t0, loop
      li t0, 0x50000004
      sw zero, 0(t0)
  )")).ok());
  auto out = cpu.Run(100);
  EXPECT_EQ(out.status, RunStatus::kExited);
  EXPECT_EQ(cpu.coverage_log().size(), 2u);  // two taken back-edges
}

// Runs `img` on the symbolic executor; returns its report and the register
// file of the last state that executed an instruction.
struct SymbolicRun {
  symex::Report report;
  std::array<uint32_t, 32> regs{};
  symex::StateStatus status = symex::StateStatus::kRunning;
  std::string stop_reason;
};

SymbolicRun RunSymbolic(const FirmwareImage& img, uint64_t max_instructions) {
  SymbolicRun run;
  auto target = MakeTarget();
  symex::ExecOptions opts;
  opts.max_instructions = max_instructions;
  symex::Executor* ex = nullptr;
  opts.step_hook = [&](const symex::State& s) {
    for (unsigned i = 0; i < 32; ++i) {
      const auto& term = ex->ctx().term(s.regs[i]);
      EXPECT_EQ(term.op, solver::TOp::kConst) << "x" << i;
      run.regs[i] = static_cast<uint32_t>(term.value);
    }
    run.status = s.status;
    run.stop_reason = s.stop_reason;
  };
  symex::Executor executor(target.get(), opts);
  ex = &executor;
  EXPECT_TRUE(executor.LoadFirmware(img).ok());
  auto report = executor.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) run.report = std::move(report).value();
  return run;
}

// A random program over every RV32IM ALU op, with operands that include 0,
// -1 and INT_MIN (so division by zero and INT_MIN / -1), sub-word store and
// load round trips through RAM, taken and untaken branches of every kind,
// and CSR read-modify-writes. It exits with the sum of every value written.
std::string DifferentialProgram(Rng& rng) {
  // s0..s5 are written; s6, s7 and s8 hold 0, -1 and INT_MIN; s9 points at
  // scratch RAM; s11 sums the values written.
  const char* dst[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  const char* src[] = {"s0", "s1", "s2", "s3", "s4", "s5",
                       "s6", "s7", "s8", "zero"};
  const std::vector<std::vector<std::string>> kinds = {
      {"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
       "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"},
      {"addi", "slti", "sltiu", "xori", "ori", "andi"},
      {"slli", "srli", "srai"},
      {"lui", "auipc"},
      {"sb", "sh", "sw"},
      {"lb", "lh", "lw", "lbu", "lhu"},
      {"beq", "bne", "blt", "bge", "bltu", "bgeu"},
      {"csrrw", "csrrs", "csrrc"},
  };
  auto pick = [&rng](const auto& list) {
    return std::string(list[rng.Below(std::size(list))]);
  };
  int labels = 0;
  // One instruction of `kind`; every value it writes is added into s11.
  // `fresh` loads its sources with new random words first.
  auto emit = [&](size_t kind, const std::string& op, bool fresh) {
    const std::string rd = pick(dst);
    const std::string ra = fresh ? "t1" : pick(src);
    const std::string rb = fresh ? "t2" : pick(src);
    const std::string load =
        fresh ? "li t1, " + std::to_string(rng.Bits(32)) + "\n  li t2, " +
                    std::to_string(rng.Bits(32)) + "\n  "
              : "";
    const std::string imm12 = std::to_string(
        static_cast<int64_t>(rng.Below(4096)) - 2048);
    const std::string offset = std::to_string(rng.Below(60)) + "(s9)";
    const std::string fold = "  add s11, s11, " + rd + "\n";
    switch (kind) {
      case 0: return load + op + " " + rd + ", " + ra + ", " + rb + "\n" + fold;
      case 1:
        return load + op + " " + rd + ", " + ra + ", " + imm12 + "\n" + fold;
      case 2:
        return load + op + " " + rd + ", " + ra + ", " +
               std::to_string(rng.Below(32)) + "\n" + fold;
      case 3:
        return op + " " + rd + ", " + std::to_string(rng.Bits(20)) + "\n" +
               fold;
      case 4: return load + op + " " + ra + ", " + offset + "\n";
      case 5: return op + " " + rd + ", " + offset + "\n" + fold;
      case 6: {
        const std::string label = "skip" + std::to_string(labels++);
        return load + op + " " + ra + ", " + rb + ", " + label +
               "\n  xori " + rd + ", " + rd + ", 0x5a5\n" + label + ":\n" +
               fold;
      }
      default: {
        const char* csrs[] = {"mepc", "mcause", "mtvec"};
        return load + op + " " + rd + ", " + pick(csrs) + ", " + ra + "\n" +
               fold;
      }
    }
  };

  std::string src_text = "_start:\n";
  for (int i = 0; i < 6; ++i)
    src_text += std::string("  li ") + dst[i] + ", " +
                std::to_string(rng.Bits(32)) + "\n";
  src_text += "  li s6, 0\n  li s7, -1\n  li s8, 0x80000000\n";
  src_text += "  li s9, 0x10000100\n";
  for (const char* op : {"div", "divu", "rem", "remu"}) {
    const std::string rd = pick(dst);
    src_text += std::string("  ") + op + " " + rd + ", " + pick(src) +
                ", s6\n  add s11, s11, " + rd + "\n";  // by zero
    src_text += std::string("  ") + op + " " + rd +
                ", s8, s7\n  add s11, s11, " + rd + "\n";  // INT_MIN / -1
  }
  for (size_t k = 0; k < kinds.size(); ++k)  // every op at least once
    for (const std::string& op : kinds[k]) src_text += "  " + emit(k, op, true);
  for (int i = 0; i < 60; ++i) {
    const size_t k = rng.Below(kinds.size());
    src_text += "  " + emit(k, pick(kinds[k]), false);
  }
  src_text += "  li t0, 0x50000004\n  sw s11, 0(t0)\n";
  return src_text;
}

// The concrete CPU is the reference for the executor's term arithmetic: with
// no symbolic inputs the two must agree on every register at exit.
class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, CpuAgreesWithSymbolicExecutor) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9176 + 5);
  const std::string src = DifferentialProgram(rng);
  auto img = Asm(src);

  auto t1 = MakeTarget();
  Cpu cpu(t1.get());
  ASSERT_TRUE(cpu.LoadFirmware(img).ok());
  auto concrete = cpu.Run(10000);
  ASSERT_EQ(concrete.status, RunStatus::kExited) << concrete.reason;

  const SymbolicRun symbolic = RunSymbolic(img, 10000);
  ASSERT_EQ(symbolic.report.exit_codes.size(), 1u);
  EXPECT_EQ(symbolic.report.exit_codes[0], concrete.exit_code);
  EXPECT_EQ(symbolic.report.instructions, cpu.state().icount);
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_EQ(symbolic.regs[i], cpu.reg(i)) << RegName(i) << "\n" << src;
}

// The M extension against the values the RISC-V spec gives, in both
// domains: the high-word products share their composition in
// vm/execute.h, so agreeing with each other alone would not catch a slip.
TEST(CrossDomainTest, MExtensionMatchesTheSpec) {
  const struct {
    const char* op;
    uint32_t a, b, want;
  } cases[] = {
      {"mulh", 0x80000000u, 0x80000000u, 0x40000000u},
      {"mulh", ~0u, ~0u, 0},
      {"mulh", ~0u, 1, ~0u},
      {"mulhsu", ~0u, ~0u, ~0u},
      {"mulhsu", 0x7fffffffu, ~0u, 0x7ffffffeu},
      {"mulhu", ~0u, ~0u, 0xfffffffeu},
      {"div", 0x80000000u, ~0u, 0x80000000u},
      {"rem", 0x80000000u, ~0u, 0},
      {"div", 7, 0, ~0u},
      {"rem", 7, 0, 7},
      {"divu", 7, 0, ~0u},
      {"remu", 7, 0, 7},
      {"div", static_cast<uint32_t>(-7), 2, static_cast<uint32_t>(-3)},
      {"rem", static_cast<uint32_t>(-7), 2, ~0u},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.op) + " " + std::to_string(c.a) + ", " +
                 std::to_string(c.b));
    auto img = Asm("_start:\n  li a1, " + std::to_string(c.a) +
                   "\n  li a2, " + std::to_string(c.b) + "\n  " + c.op +
                   " a0, a1, a2\n  li t0, 0x50000004\n  sw a0, 0(t0)\n");
    auto target = MakeTarget();
    Cpu cpu(target.get());
    ASSERT_TRUE(cpu.LoadFirmware(img).ok());
    auto concrete = cpu.Run(100);
    ASSERT_EQ(concrete.status, RunStatus::kExited);
    EXPECT_EQ(concrete.exit_code, c.want);
    const SymbolicRun symbolic = RunSymbolic(img, 100);
    ASSERT_EQ(symbolic.report.exit_codes.size(), 1u);
    EXPECT_EQ(symbolic.report.exit_codes[0], c.want);
  }
}

// A load whose first byte is mapped and whose last is past the end of RAM
// or ROM faults in both domains.
TEST(CrossDomainTest, LoadPastEndOfRamOrRomFaultsInBothDomains) {
  for (const char* access : {"lw a0, 0(t0)", "lh a0, 1(t0)", "lhu a0, 1(t0)"}) {
    for (uint32_t base : {kRamBase + kRamSize - 4, kRomBase + kRomSize - 4}) {
      SCOPED_TRACE(std::string(access) + " at " + std::to_string(base));
      const std::string src = "_start:\n  li t0, " + std::to_string(base) +
                              "\n  addi t0, t0, 2\n  " + access +
                              "\n  li t1, 0x50000004\n  sw a0, 0(t1)\n";
      auto img = Asm(src);
      auto target = MakeTarget();
      Cpu cpu(target.get());
      ASSERT_TRUE(cpu.LoadFirmware(img).ok());
      auto concrete = cpu.Run(100);
      EXPECT_EQ(concrete.status, RunStatus::kBug);
      EXPECT_EQ(concrete.reason, "out-of-bounds load");

      const SymbolicRun symbolic = RunSymbolic(img, 100);
      ASSERT_EQ(symbolic.report.bugs.size(), 1u);
      EXPECT_EQ(symbolic.report.bugs[0].kind, "out-of-bounds load");
      EXPECT_EQ(symbolic.report.bugs[0].pc, concrete.fault_pc);
      EXPECT_TRUE(symbolic.report.exit_codes.empty());
    }
  }
}

// wfi with interrupts masked can never wake: both domains stop at once with
// the same reason, charging the hardware one 16-cycle wait.
TEST(CrossDomainTest, WfiWithInterruptsMaskedStopsInBothDomains) {
  auto img = Asm("_start:\n  li a0, 7\n  wfi\n  li t0, 0x50000004\n"
                 "  sw a0, 0(t0)\n");
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(img).ok());
  auto concrete = cpu.Run(1000);
  EXPECT_EQ(concrete.status, RunStatus::kWaiting);
  EXPECT_EQ(concrete.reason, "wfi with interrupts masked");
  EXPECT_EQ(cpu.state().icount, 3u);  // li is two instructions

  const SymbolicRun symbolic = RunSymbolic(img, 1000);
  EXPECT_EQ(symbolic.status, symex::StateStatus::kTerminated);
  EXPECT_EQ(symbolic.stop_reason, "wfi with interrupts masked");
  EXPECT_EQ(symbolic.report.instructions, 3u);
  EXPECT_EQ(symbolic.report.paths_completed, 1u);
  EXPECT_TRUE(symbolic.report.exit_codes.empty());
}

// wfi with interrupts enabled waits for the timer, then both domains serve
// the interrupt and run on to the same exit.
TEST(CrossDomainTest, WfiWakesOnInterruptInBothDomains) {
  auto img = Asm(R"(
    _start:
      j main
      .org 0x40
    isr:
      li s10, 0x40000000
      sw zero, 0xc(s10)
      addi s9, s9, 1
      mret
    main:
      la t0, isr
      csrw mtvec, t0
      li t1, 0x40000000
      li t2, 40
      sw t2, 4(t1)
      li t2, 7
      sw t2, 0(t1)
      li t3, 8
      csrw mstatus, t3
    wait:
      wfi
      beqz s9, wait
      csrw mstatus, zero
      addi a0, s9, 100
      li t0, 0x50000004
      sw a0, 0(t0)
  )");
  auto target = MakeTarget();
  Cpu cpu(target.get());
  ASSERT_TRUE(cpu.LoadFirmware(img).ok());
  auto concrete = cpu.Run(10000);
  ASSERT_EQ(concrete.status, RunStatus::kExited) << concrete.reason;
  EXPECT_EQ(concrete.exit_code, 101u);

  const SymbolicRun symbolic = RunSymbolic(img, 10000);
  ASSERT_EQ(symbolic.report.exit_codes.size(), 1u);
  EXPECT_EQ(symbolic.report.exit_codes[0], 101u);
  EXPECT_GE(symbolic.report.interrupts_served, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace hardsnap::vm
