// End-to-end support for USER-supplied peripherals: a downstream project
// drops its own Verilog into a SessionConfig and gets the full HardSnap
// treatment (simulation, scan chain, snapshots, symbolic co-testing)
// with no framework changes — the paper's "designed to support new
// peripherals automatically" claim.
#include <gtest/gtest.h>

#include "core/session.h"
#include "fpga/fpga_target.h"
#include "rtl/elaborate.h"

namespace hardsnap {
namespace {

// A user's custom MAC (multiply-accumulate) accelerator.
//   0x00 CTRL   [0] start  [1] clear
//   0x04 A, 0x08 B  operands
//   0x0c ACC    accumulator (read-only)
//   0x10 STATUS [0] done; write clears
const char* kMacVerilog = R"(
module user_mac(
  input clk, input rst,
  input sel, input wr, input rd,
  input [7:0] addr, input [31:0] wdata,
  output [31:0] rdata, output irq
);
  reg [31:0] opa;
  reg [31:0] opb;
  reg [31:0] acc;
  reg done;
  reg busy;

  always @(posedge clk) begin
    if (rst) begin
      opa <= 32'h0;
      opb <= 32'h0;
      acc <= 32'h0;
      done <= 1'b0;
      busy <= 1'b0;
    end else begin
      if (busy) begin
        acc <= acc + opa * opb;
        busy <= 1'b0;
        done <= 1'b1;
      end
      if (sel && wr) begin
        case (addr)
          8'h00: begin
            if (wdata[0]) busy <= 1'b1;
            if (wdata[1]) acc <= 32'h0;
          end
          8'h04: opa <= wdata;
          8'h08: opb <= wdata;
          8'h10: done <= 1'b0;
        endcase
      end
    end
  end

  reg [31:0] rdata_mux;
  always @(*) begin
    case (addr)
      8'h04: rdata_mux = opa;
      8'h08: rdata_mux = opb;
      8'h0c: rdata_mux = acc;
      8'h10: rdata_mux = {31'h0, done};
      default: rdata_mux = 32'h0;
    endcase
  end
  assign rdata = rdata_mux;
  assign irq = done;
endmodule
)";

periph::PeripheralInfo MacPeripheral() {
  return periph::PeripheralInfo{"user_mac", "u_mac", kMacVerilog, 0, 0};
}

TEST(CustomPeripheralTest, DrivesThroughSession) {
  core::SessionConfig cfg;
  cfg.peripherals = {MacPeripheral()};
  auto session = core::Session::Create(std::move(cfg));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto& hw = session.value()->hardware();
  ASSERT_TRUE(hw.Write32(0x04, 6).ok());
  ASSERT_TRUE(hw.Write32(0x08, 7).ok());
  ASSERT_TRUE(hw.Write32(0x00, 0b01).ok());  // start
  ASSERT_TRUE(hw.Run(2).ok());
  EXPECT_EQ(hw.Read32(0x0c).value(), 42u);
  // Accumulate again.
  ASSERT_TRUE(hw.Write32(0x00, 0b01).ok());
  ASSERT_TRUE(hw.Run(2).ok());
  EXPECT_EQ(hw.Read32(0x0c).value(), 84u);
}

TEST(CustomPeripheralTest, ScanChainSnapshotsCoverIt) {
  auto soc = rtl::CompileVerilog(periph::BuildSoc({MacPeripheral()}), "soc");
  ASSERT_TRUE(soc.ok()) << soc.status().ToString();
  auto fpga = fpga::FpgaTarget::Create(soc.value());
  ASSERT_TRUE(fpga.ok());
  auto& t = *fpga.value();
  ASSERT_TRUE(t.ResetHardware().ok());
  ASSERT_TRUE(t.Write32(0x04, 100).ok());
  ASSERT_TRUE(t.Write32(0x08, 3).ok());
  ASSERT_TRUE(t.Write32(0x00, 1).ok());
  ASSERT_TRUE(t.Run(2).ok());
  ASSERT_EQ(t.Read32(0x0c).value(), 300u);

  // Snapshot mid-life, diverge, restore through the scan chain.
  ASSERT_TRUE(t.SaveLiveToSlot(0).ok());
  ASSERT_TRUE(t.Write32(0x00, 0b10).ok());  // clear acc
  ASSERT_TRUE(t.Run(1).ok());
  ASSERT_EQ(t.Read32(0x0c).value(), 0u);
  ASSERT_TRUE(t.RestoreLiveFromSlot(0).ok());
  EXPECT_EQ(t.Read32(0x0c).value(), 300u);
}

// Drive the user accelerator with a symbolic operand. This doubles as the
// paper's concretization-policy trade-off demo (Sec. III-B): the value
// crosses the VM boundary into concrete hardware, so with kSingleValue
// only one operand is ever tried (performance), while kAllValues forks a
// state per boundary value and provably reaches the acc==54 trap
// (completeness).
symex::Report RunMacCoTest(symex::ConcretizationPolicy policy) {
  core::SessionConfig cfg;
  cfg.peripherals = {MacPeripheral()};
  cfg.exec.max_instructions = 400000;
  cfg.exec.concretization = policy;
  cfg.exec.max_concretization_fanout = 16;
  auto session = core::Session::Create(std::move(cfg));
  HS_CHECK(session.ok());
  HS_CHECK(session.value()->LoadFirmwareAsm(R"(
    _start:
      li t0, 0x40000000
      andi a0, a0, 0xf
      sw a0, 4(t0)        # A = input & 0xf
      li t1, 6
      sw t1, 8(t0)        # B = 6
      li t1, 1
      sw t1, 0(t0)        # start
      nop
      nop
    poll:
      lw t2, 0x10(t0)
      beqz t2, poll
      lw t3, 0xc(t0)
      li t4, 54           # 9 * 6
      bne t3, t4, fine
      ebreak              # "bug" when acc == 54, i.e. input & 0xf == 9
    fine:
      li t0, 0x50000004
      sw zero, 0(t0)
  )").ok());
  session.value()->MakeSymbolicRegister(10, "operand");
  auto report = session.value()->Run();
  HS_CHECK_MSG(report.ok(), report.status().ToString());
  return report.value();
}

TEST(CustomPeripheralTest, SingleValuePolicyMissesBoundaryBug) {
  auto report = RunMacCoTest(symex::ConcretizationPolicy::kSingleValue);
  // One concrete operand crosses the boundary; the trap is (very likely)
  // missed and only one path exists.
  EXPECT_EQ(report.paths_completed, 1u);
}

TEST(CustomPeripheralTest, AllValuesPolicyFindsBoundaryBug) {
  auto report = RunMacCoTest(symex::ConcretizationPolicy::kAllValues);
  EXPECT_GT(report.paths_completed, 1u);
  ASSERT_GE(report.bugs.size(), 1u) << report.Summary();
  EXPECT_EQ(report.bugs[0].test_case.inputs.at("operand") & 0xf, 9u);
}

}  // namespace
}  // namespace hardsnap
