#include <gtest/gtest.h>

#include "rtl/elaborate.h"

namespace hardsnap::rtl {
namespace {

Design MustCompile(const std::string& src, const std::string& top = "") {
  auto r = CompileVerilog(src, top);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return Design{"broken"};
  return std::move(r).value();
}

TEST(ElaborateTest, CounterProducesOneFlop) {
  Design d = MustCompile(R"(
    module counter(input clk, input rst, output [7:0] value);
      reg [7:0] count;
      always @(posedge clk) begin
        if (rst) count <= 8'h00;
        else count <= count + 8'h01;
      end
      assign value = count;
    endmodule
  )");
  EXPECT_EQ(d.flops().size(), 1u);
  EXPECT_EQ(d.Stats().num_flop_bits, 8u);
  EXPECT_NE(d.FindSignal("count"), kInvalidId);
  EXPECT_EQ(d.signal(d.FindSignal("count")).kind, SignalKind::kReg);
}

TEST(ElaborateTest, ClockAndResetIdentified) {
  Design d = MustCompile("module m(input clk, input rst); endmodule");
  EXPECT_EQ(d.clock(), d.FindSignal("clk"));
  EXPECT_EQ(d.reset(), d.FindSignal("rst"));
}

TEST(ElaborateTest, ResetAliasAccepted) {
  Design d = MustCompile("module m(input clk, input reset); endmodule");
  EXPECT_EQ(d.reset(), d.FindSignal("reset"));
}

TEST(ElaborateTest, MissingClockRejected) {
  EXPECT_FALSE(CompileVerilog("module m(input foo); endmodule").ok());
}

TEST(ElaborateTest, ParametersResolve) {
  Design d = MustCompile(R"(
    module m #(parameter WIDTH = 8)(input clk, output [WIDTH-1:0] y);
      reg [WIDTH-1:0] r;
      always @(posedge clk) r <= r + 1;
      assign y = r;
    endmodule
  )");
  EXPECT_EQ(d.signal(d.FindSignal("r")).width, 8u);
}

TEST(ElaborateTest, ParameterOverrideFromCaller) {
  auto r = CompileVerilog(R"(
    module m #(parameter WIDTH = 8)(input clk, output [WIDTH-1:0] y);
      reg [WIDTH-1:0] q;
      always @(posedge clk) q <= q;
      assign y = q;
    endmodule
  )", "", {{"WIDTH", 16}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().signal(r.value().FindSignal("q")).width, 16u);
}

TEST(ElaborateTest, MemoryDeclared) {
  Design d = MustCompile(R"(
    module m(input clk, input [3:0] addr, input [7:0] wdata, input we,
             output [7:0] rdata);
      reg [7:0] mem [0:15];
      always @(posedge clk) begin
        if (we) mem[addr] <= wdata;
      end
      assign rdata = mem[addr];
    endmodule
  )");
  ASSERT_EQ(d.memories().size(), 1u);
  EXPECT_EQ(d.memory(0).depth, 16u);
  EXPECT_EQ(d.memory(0).width, 8u);
  EXPECT_EQ(d.mem_writes().size(), 1u);
}

TEST(ElaborateTest, CombAlwaysBecomesWires) {
  Design d = MustCompile(R"(
    module m(input clk, input [1:0] sel, input [7:0] a, output reg [7:0] y);
      always @(*) begin
        y = 8'h00;
        if (sel == 2'd1) y = a;
      end
    endmodule
  )");
  EXPECT_EQ(d.flops().size(), 0u);
  // y is a comb-driven output
  bool found = false;
  for (const auto& ca : d.comb())
    if (ca.target == d.FindSignal("y")) found = true;
  EXPECT_TRUE(found);
}

TEST(ElaborateTest, LatchInferenceRejected) {
  auto r = CompileVerilog(R"(
    module m(input clk, input sel, input [7:0] a, output reg [7:0] y);
      always @(*) begin
        if (sel) y = a;
      end
    endmodule
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("latch"), std::string::npos);
}

TEST(ElaborateTest, CaseLatchInferenceRejected) {
  // No default and no item assigns y when sel == 2'd3.
  auto r = CompileVerilog(R"(
    module m(input clk, input [1:0] sel, input [7:0] a, output reg [7:0] y);
      always @(*) begin
        case (sel)
          2'd0: y = a;
          2'd1, 2'd2: y = 8'd0;
        endcase
      end
    endmodule
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("latch"), std::string::npos);

  // The same case with a default is fully assigned.
  auto ok = CompileVerilog(R"(
    module m(input clk, input [1:0] sel, input [7:0] a, output reg [7:0] y);
      always @(*) begin
        case (sel)
          2'd0: y = a;
          default: y = 8'd0;
        endcase
      end
    endmodule
  )");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ElaborateTest, BlockingInSequentialRejected) {
  auto r = CompileVerilog(R"(
    module m(input clk);
      reg q;
      always @(posedge clk) q = 1'b1;
    endmodule
  )");
  ASSERT_FALSE(r.ok());
}

TEST(ElaborateTest, NonBlockingInCombRejected) {
  auto r = CompileVerilog(R"(
    module m(input clk, output reg y);
      always @(*) y <= 1'b1;
    endmodule
  )");
  ASSERT_FALSE(r.ok());
}

TEST(ElaborateTest, MultipleDriversRejected) {
  auto r = CompileVerilog(R"(
    module m(input clk, input a, output y);
      assign y = a;
      assign y = ~a;
    endmodule
  )");
  EXPECT_FALSE(r.ok());
}

TEST(ElaborateTest, HierarchyFlattensWithPrefixes) {
  Design d = MustCompile(R"(
    module leaf(input clk, input [3:0] d, output [3:0] q);
      reg [3:0] state;
      always @(posedge clk) state <= d;
      assign q = state;
    endmodule
    module top(input clk, input [3:0] in, output [3:0] out);
      wire [3:0] mid;
      leaf u_a (.clk(clk), .d(in), .q(mid));
      leaf u_b (.clk(clk), .d(mid), .q(out));
    endmodule
  )");
  EXPECT_NE(d.FindSignal("u_a.state"), kInvalidId);
  EXPECT_NE(d.FindSignal("u_b.state"), kInvalidId);
  EXPECT_EQ(d.flops().size(), 2u);
}

TEST(ElaborateTest, InstanceParamOverride) {
  Design d = MustCompile(R"(
    module leaf #(parameter W = 2)(input clk, output [W-1:0] q);
      reg [W-1:0] state;
      always @(posedge clk) state <= state + 1;
      assign q = state;
    endmodule
    module top(input clk, output [7:0] out);
      leaf #(.W(8)) u_leaf (.clk(clk), .q(out));
    endmodule
  )");
  EXPECT_EQ(d.signal(d.FindSignal("u_leaf.state")).width, 8u);
}

TEST(ElaborateTest, UnconnectedInputRejected) {
  auto r = CompileVerilog(R"(
    module leaf(input clk, input d, output q);
      assign q = d;
    endmodule
    module top(input clk, output out);
      leaf u_leaf (.clk(clk), .q(out));
    endmodule
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unconnected"), std::string::npos);
}

TEST(ElaborateTest, UnknownModuleRejected) {
  EXPECT_FALSE(CompileVerilog(R"(
    module top(input clk);
      ghost u_g (.clk(clk));
    endmodule
  )").ok());
}

TEST(ElaborateTest, UnknownIdentifierRejected) {
  auto r = CompileVerilog(R"(
    module m(input clk, output y);
      assign y = nonexistent;
    endmodule
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("nonexistent"), std::string::npos);
}

TEST(ElaborateTest, TopSelectionByName) {
  Design d = MustCompile(R"(
    module a(input clk); endmodule
    module b(input clk); endmodule
  )", "a");
  EXPECT_EQ(d.name(), "a");
}

TEST(ElaborateTest, DefaultTopIsLastModule) {
  Design d = MustCompile(R"(
    module a(input clk); endmodule
    module b(input clk); endmodule
  )");
  EXPECT_EQ(d.name(), "b");
}

TEST(ElaborateTest, StatsCountStateBits) {
  Design d = MustCompile(R"(
    module m(input clk, input we, input [3:0] addr, input [15:0] wdata);
      reg [7:0] a;
      reg [2:0] b;
      reg [15:0] mem [0:7];
      always @(posedge clk) begin
        a <= a + 1;
        b <= b + 1;
        if (we) mem[addr] <= wdata;
      end
    endmodule
  )");
  auto stats = d.Stats();
  EXPECT_EQ(stats.num_flop_bits, 11u);
  EXPECT_EQ(stats.num_memory_bits, 128u);
  EXPECT_EQ(stats.state_bits(), 139u);
}

TEST(ElaborateTest, PartSelectAssignmentMergesBits) {
  Design d = MustCompile(R"(
    module m(input clk, input [3:0] nib);
      reg [7:0] r;
      always @(posedge clk) begin
        r[3:0] <= nib;
      end
    endmodule
  )");
  EXPECT_EQ(d.flops().size(), 1u);
}

TEST(ElaborateTest, ValidatePassesOnGoodDesigns) {
  Design d = MustCompile(R"(
    module m(input clk, input rst, input [7:0] x, output [7:0] y);
      reg [7:0] acc;
      always @(posedge clk) begin
        if (rst) acc <= 8'h00;
        else acc <= acc ^ x;
      end
      assign y = acc;
    endmodule
  )");
  EXPECT_TRUE(d.Validate().ok());
}

}  // namespace
}  // namespace hardsnap::rtl
