#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "scanchain/scan_controller.h"
#include "scanchain/scan_pass.h"
#include "sim/simulator.h"

namespace hardsnap::scanchain {

// Runs the bit-serial pass whatever the proof says: the oracle the
// shortcut is checked against.
class ScanControllerPeer {
 public:
  static Result<sim::HardwareState> BitSerial(
      ScanController* ctrl, const sim::HardwareState* incoming) {
    return ctrl->Pass(incoming, /*bit_serial=*/true);
  }
};

namespace {

rtl::Design Compile(const std::string& src) {
  auto r = rtl::CompileVerilog(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

sim::Simulator MustSim(const rtl::Design& d) {
  auto r = sim::Simulator::Create(d);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

constexpr const char* kMixedDesign = R"(
  module mixed(input clk, input rst, input [7:0] in, input we,
               input [3:0] waddr, output [15:0] out);
    reg [15:0] lfsr;
    reg [7:0] acc;
    reg flag;
    reg [7:0] mem [0:15];
    always @(posedge clk) begin
      if (rst) begin
        lfsr <= 16'hace1;
        acc <= 8'h00;
        flag <= 1'b0;
      end else begin
        lfsr <= {lfsr[14:0], lfsr[15] ^ lfsr[13] ^ lfsr[12] ^ lfsr[10]};
        acc <= acc + in;
        flag <= ~flag;
      end
      if (we) mem[waddr] <= in;
    end
    assign out = lfsr ^ {acc, 7'h00, flag};
  endmodule
)";

InstrumentedDesign MustInstrument(const rtl::Design& d,
                                  const ScanOptions& opts = {}) {
  auto r = InsertScanChain(d, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ScanPassTest, AddsScanPins) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_NE(inst.design.FindSignal("scan_enable"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_in"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_out"), rtl::kInvalidId);
}

TEST(ScanPassTest, ChainCoversAllRegisterBits) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_EQ(inst.map.total_bits, 16u + 8u + 1u);
  EXPECT_EQ(inst.map.slots.size(), 3u);
  EXPECT_EQ(inst.map.total_mem_words, 16u);
  ASSERT_EQ(inst.map.mem_ports.size(), 1u);
  EXPECT_EQ(inst.map.mem_ports[0].memory_name, "mem");
}

TEST(ScanPassTest, MemoryPortsAdded) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_NE(inst.design.FindSignal("scan_mem_en"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_mem_addr"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_mem_wdata"), rtl::kInvalidId);
  EXPECT_NE(inst.design.FindSignal("scan_mem_rdata"), rtl::kInvalidId);
}

TEST(ScanPassTest, OverheadReported) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  // Same number of flops, more expression nodes and signals.
  EXPECT_EQ(inst.map.instrumented_stats.num_flops,
            inst.map.original_stats.num_flops);
  EXPECT_GT(inst.map.instrumented_stats.num_expr_nodes,
            inst.map.original_stats.num_expr_nodes);
  EXPECT_GT(inst.map.instrumented_stats.num_signals,
            inst.map.original_stats.num_signals);
}

TEST(ScanPassTest, ReservedNameCollisionRejected) {
  auto d = Compile(R"(
    module m(input clk, input scan_enable, output y);
      assign y = scan_enable;
    endmodule
  )");
  EXPECT_FALSE(InsertScanChain(d).ok());
}

TEST(ScanPassTest, InstrumentedDesignValidates) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  EXPECT_TRUE(inst.design.Validate().ok());
}

// Property: with scan_enable=0 the instrumented design is cycle-for-cycle
// equivalent to the original (the paper's non-interference requirement).
class ScanEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanEquivalenceTest, FunctionalBehaviourUnchanged) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);

  auto ref = MustSim(d);
  auto dut = MustSim(inst.design);
  ASSERT_TRUE(ref.Reset().ok());
  ASSERT_TRUE(dut.Reset().ok());
  ASSERT_TRUE(dut.PokeInput("scan_enable", 0).ok());

  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int cycle = 0; cycle < 200; ++cycle) {
    uint64_t in = rng.Bits(8), we = rng.Bits(1), waddr = rng.Bits(4);
    for (auto* s : {&ref, &dut}) {
      ASSERT_TRUE(s->PokeInput("in", in).ok());
      ASSERT_TRUE(s->PokeInput("we", we).ok());
      ASSERT_TRUE(s->PokeInput("waddr", waddr).ok());
      s->Tick(1);
    }
    ASSERT_EQ(dut.Peek("out").value(), ref.Peek("out").value())
        << "diverged at cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanEquivalenceTest, ::testing::Range(0, 8));

TEST(ScanControllerTest, SaveMatchesSimulatorDump) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x5a).ok());
  ASSERT_TRUE(sim.PokeInput("we", 1).ok());
  ASSERT_TRUE(sim.PokeInput("waddr", 3).ok());
  sim.Tick(17);

  // Ground truth via the simulator's privileged access.
  auto truth = sim.DumpState();

  ScanController ctrl(&sim, inst.map);
  auto saved = ctrl.Save();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.value().flops, truth.flops);
  EXPECT_EQ(saved.value().memories, truth.memories);
}

TEST(ScanControllerTest, SaveIsNonDestructive) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x11).ok());
  sim.Tick(9);
  auto before = sim.DumpState();

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Save().ok());
  auto after = sim.DumpState();
  EXPECT_EQ(before.flops, after.flops);
  EXPECT_EQ(before.memories, after.memories);
}

TEST(ScanControllerTest, RestoreLoadsState) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x77).ok());
  ASSERT_TRUE(sim.PokeInput("we", 1).ok());
  ASSERT_TRUE(sim.PokeInput("waddr", 9).ok());
  sim.Tick(31);
  auto golden = sim.DumpState();

  sim.Tick(50);  // drift away
  ASSERT_NE(sim.DumpState().flops, golden.flops);

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Restore(golden).ok());
  auto now = sim.DumpState();
  EXPECT_EQ(now.flops, golden.flops);
  EXPECT_EQ(now.memories, golden.memories);
}

TEST(ScanControllerTest, SaveRestoreSwapsStates) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  sim.Tick(5);
  auto state_a = sim.DumpState();
  sim.Tick(23);
  auto state_b = sim.DumpState();

  // Hardware currently holds B; swap in A, should get B back out.
  ScanController ctrl(&sim, inst.map);
  auto out = ctrl.SaveRestore(state_a);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().flops, state_b.flops);
  EXPECT_EQ(sim.DumpState().flops, state_a.flops);
}

TEST(ScanControllerTest, RestoredStateResumesIdentically) {
  // After a scan-chain restore, execution must continue exactly as it
  // would have from the original state (the consistency property the
  // whole paper rests on).
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  ASSERT_TRUE(sim.PokeInput("in", 0x2d).ok());
  sim.Tick(11);
  auto snap = sim.DumpState();

  std::vector<uint64_t> expected;
  for (int i = 0; i < 30; ++i) {
    sim.Tick(1);
    expected.push_back(sim.Peek("out").value());
  }

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Restore(snap).ok());
  std::vector<uint64_t> replay;
  for (int i = 0; i < 30; ++i) {
    sim.Tick(1);
    replay.push_back(sim.Peek("out").value());
  }
  EXPECT_EQ(replay, expected);
}

TEST(ScanControllerTest, PassCyclesLinearInStateBits) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ScanController ctrl(&sim, inst.map);
  EXPECT_EQ(ctrl.PassCycles(), 25u + 16u);  // 25 FF bits + 16 memory words
}

TEST(ScanControllerTest, ScanShiftCostMeasuredInCycles) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  ASSERT_TRUE(sim.Reset().ok());
  uint64_t before = sim.cycle_count();
  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Save().ok());
  EXPECT_EQ(sim.cycle_count() - before, ctrl.PassCycles());
}

TEST(ScanControllerTest, MisShapedStateRejected) {
  auto inst = MustInstrument(Compile(kMixedDesign));
  auto sim = MustSim(inst.design);
  ScanController ctrl(&sim, inst.map);
  auto st = sim.DumpState();
  st.memories[0].pop_back();  // one word short of the memory's depth
  EXPECT_FALSE(ctrl.SaveRestore(st).ok());
  EXPECT_FALSE(ctrl.Restore(st).ok());
}

TEST(ScanScopeTest, ScopedInstrumentationOnlyChainsPrefix) {
  auto d = Compile(R"(
    module leaf(input clk, input [7:0] d, output [7:0] q);
      reg [7:0] state;
      always @(posedge clk) state <= d;
      assign q = state;
    endmodule
    module top(input clk, input [7:0] in, output [7:0] out);
      wire [7:0] mid;
      leaf u_a (.clk(clk), .d(in), .q(mid));
      leaf u_b (.clk(clk), .d(mid), .q(out));
    endmodule
  )");
  ScanOptions opts;
  opts.scope_prefix = "u_a.";
  auto inst = MustInstrument(d, opts);
  EXPECT_EQ(inst.map.total_bits, 8u);
  ASSERT_EQ(inst.map.slots.size(), 1u);
  EXPECT_EQ(inst.map.slots[0].signal_name, "u_a.state");
}

sim::HardwareState RandomState(const rtl::Design& d, Rng* rng) {
  sim::HardwareState st;
  for (const auto& ff : d.flops())
    st.flops.push_back(rng->Bits(d.signal(ff.q).width));
  for (const auto& mem : d.memories()) {
    st.memories.emplace_back(mem.depth);
    for (auto& word : st.memories.back()) word = rng->Bits(mem.width);
  }
  return st;
}

// Property test: random states shift in and out intact.
class ScanRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanRoundTripTest, RandomStateRoundTrips) {
  auto d = Compile(kMixedDesign);
  auto inst = MustInstrument(d);
  auto sim = MustSim(inst.design);
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const sim::HardwareState target = RandomState(inst.design, &rng);

  ScanController ctrl(&sim, inst.map);
  ASSERT_TRUE(ctrl.Restore(target).ok());
  auto back = ctrl.Save();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().flops, target.flops);
  EXPECT_EQ(back.value().memories, target.memories);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanRoundTripTest, ::testing::Range(0, 8));

// --- proven shortcut vs the bit-serial oracle ------------------------------

std::vector<std::string> ScanPins(const ScanChainMap& map) {
  std::vector<std::string> pins = {"scan_enable", "scan_in", "scan_out",
                                   "scan_hold"};
  for (const auto& mp : map.mem_ports)
    for (const char* suffix : {"_en", "_addr", "_wdata", "_wen", "_rdata"})
      pins.push_back(mp.port_prefix + suffix);
  return pins;
}

// A controller on `dut` and the bit-serial oracle on a twin simulator of
// the same netlist, driven through the same stimuli and passes.
class Twin {
 public:
  explicit Twin(const InstrumentedDesign& inst)
      : map_(inst.map),
        dut_(MustSim(inst.design)),
        ref_(MustSim(inst.design)),
        ctrl_(&dut_, map_),
        oracle_(&ref_, map_) {}

  const ScanController& ctrl() const { return ctrl_; }
  sim::Simulator& dut() { return dut_; }

  // Loads `st` and random values on every input pin, except the ones that
  // keep the shortcut off (scan_hold, each port's en/wen), which stay low.
  void Randomize(const sim::HardwareState& st, Rng* rng) {
    const rtl::Design& d = dut_.design();
    std::vector<std::string> idle = {"scan_hold"};
    for (const auto& mp : map_.mem_ports) {
      idle.push_back(mp.port_prefix + "_en");
      idle.push_back(mp.port_prefix + "_wen");
    }
    for (auto* s : {&dut_, &ref_}) ASSERT_TRUE(s->RestoreState(st).ok());
    for (rtl::SignalId id = 0; id < static_cast<rtl::SignalId>(
                                        d.signals().size());
         ++id) {
      const auto& sig = d.signal(id);
      if (sig.kind != rtl::SignalKind::kInput) continue;
      const bool low =
          std::find(idle.begin(), idle.end(), sig.name) != idle.end();
      Poke(sig.name, low ? 0 : rng->Bits(sig.width));
    }
  }

  void Poke(const std::string& pin, uint64_t v) {
    for (auto* s : {&dut_, &ref_}) ASSERT_TRUE(s->PokeInput(pin, v).ok());
  }

  void Tick(unsigned cycles) {
    dut_.Tick(cycles);
    ref_.Tick(cycles);
  }

  // One pass of each kind on both sides; `incoming` is ignored by Save.
  enum class Kind { kSave, kSaveRestore, kRestore };
  void Pass(Kind kind, const sim::HardwareState& incoming) {
    const uint64_t before = dut_.cycle_count();
    if (kind == Kind::kRestore) {
      EXPECT_TRUE(ctrl_.Restore(incoming).ok());
      EXPECT_TRUE(ScanControllerPeer::BitSerial(&oracle_, &incoming).ok());
    } else {
      const bool save = kind == Kind::kSave;
      auto got = save ? ctrl_.Save() : ctrl_.SaveRestore(incoming);
      auto want =
          ScanControllerPeer::BitSerial(&oracle_, save ? nullptr : &incoming);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(got.value(), want.value()) << "returned state";
    }
    EXPECT_EQ(dut_.cycle_count() - before, ctrl_.PassCycles());
    ExpectSame();
  }

  void ExpectSame() {
    EXPECT_EQ(dut_.DumpState(), ref_.DumpState()) << "live state";
    EXPECT_EQ(dut_.cycle_count(), ref_.cycle_count());
    for (const auto& pin : ScanPins(map_))
      EXPECT_EQ(dut_.Peek(pin).value(), ref_.Peek(pin).value()) << pin;
  }

  // Random states and pins, every pass kind, then a few functional cycles
  // to show the pins were left alike too.
  void RunRounds(uint64_t seed, int rounds) {
    Rng rng(seed);
    const rtl::Design& d = dut_.design();
    for (int r = 0; r < rounds; ++r) {
      Randomize(RandomState(d, &rng), &rng);
      const auto kind = static_cast<Kind>(r % 3);
      Pass(kind, RandomState(d, &rng));
      Tick(3);
      ExpectSame();
    }
  }

 private:
  const ScanChainMap& map_;
  sim::Simulator dut_;
  sim::Simulator ref_;
  ScanController ctrl_;
  ScanController oracle_;
};

struct NamedDesign {
  const char* top;
  std::string (*source)();
};

void PrintTo(const NamedDesign& d, std::ostream* os) { *os << d.top; }

std::string SocSource() { return periph::BuildSoc(periph::DefaultCorpus()); }

const NamedDesign kShortcutDesigns[] = {
    {"hs_timer", periph::TimerVerilog},   {"hs_uart", periph::UartVerilog},
    {"hs_watchdog", periph::WatchdogVerilog},
    {"hs_aes128", periph::Aes128Verilog}, {"hs_sha256", periph::Sha256Verilog},
    {"soc", SocSource},
};

class ScanShortcutTest : public ::testing::TestWithParam<NamedDesign> {};

TEST_P(ScanShortcutTest, MatchesBitSerialOracle) {
  auto d = rtl::CompileVerilog(GetParam().source(), GetParam().top);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto inst = MustInstrument(d.value());
  Twin twin(inst);
  ASSERT_TRUE(twin.ctrl().shortcut_proven());
  twin.RunRounds(0x5ca11ab1e, 6);
}

INSTANTIATE_TEST_SUITE_P(
    Peripherals, ScanShortcutTest, ::testing::ValuesIn(kShortcutDesigns),
    [](const ::testing::TestParamInfo<NamedDesign>& info) {
      return std::string(info.param.top);
    });

TEST(ScanShortcutProofTest, MixedDesignIsProven) {
  auto inst = MustInstrument(Compile(kMixedDesign));
  Twin twin(inst);
  ASSERT_TRUE(twin.ctrl().shortcut_proven());
  twin.RunRounds(17, 6);
}

TEST(ScanShortcutProofTest, ScopedChainFallsBack) {
  auto d = Compile(R"(
    module leaf(input clk, input [7:0] d, output [7:0] q);
      reg [7:0] state;
      always @(posedge clk) state <= d + 8'd1;
      assign q = state;
    endmodule
    module top(input clk, input [7:0] in, output [7:0] out);
      wire [7:0] mid;
      leaf u_a (.clk(clk), .d(in), .q(mid));
      leaf u_b (.clk(clk), .d(mid), .q(out));
    endmodule
  )");
  ScanOptions opts;
  opts.scope_prefix = "u_a.";
  auto inst = MustInstrument(d, opts);
  Twin twin(inst);
  EXPECT_FALSE(twin.ctrl().shortcut_proven());
  twin.RunRounds(3, 6);
}

// A chained flop whose next-state has lost its scan_hold arm keeps running
// functionally during the memory phase: the proof must refuse it.
TEST(ScanShortcutProofTest, EditedFlopNextFallsBack) {
  auto inst = MustInstrument(Compile(kMixedDesign));
  auto& ff = inst.design.mutable_flops()[inst.map.slots[0].flop_index];
  ff.next = inst.design.expr(ff.next).args[2];  // Mux(se, shifted, next)
  Twin twin(inst);
  EXPECT_FALSE(twin.ctrl().shortcut_proven());
  twin.RunRounds(5, 6);

  // The edit matters: a Save now moves the state.
  twin.Poke("rst", 0);
  const auto before = twin.dut().DumpState();
  twin.Pass(Twin::Kind::kSave, before);
  EXPECT_NE(twin.dut().DumpState(), before);
}

// A functional memory write left ungated keeps writing during the pass.
TEST(ScanShortcutProofTest, UngatedWriteFallsBack) {
  auto inst = MustInstrument(Compile(kMixedDesign));
  auto& mw = inst.design.mutable_mem_writes()[0];  // `if (we) mem[waddr]`
  const auto& gated = inst.design.expr(mw.enable);
  mw.enable = inst.design.expr(gated.args[0]).args[0];
  Twin twin(inst);
  EXPECT_FALSE(twin.ctrl().shortcut_proven());
  twin.RunRounds(7, 6);

  Rng rng(11);
  auto st = RandomState(inst.design, &rng);
  st.memories[0][3] = 0;
  twin.Randomize(st, &rng);
  for (const auto& [pin, v] : std::vector<std::pair<std::string, uint64_t>>{
           {"we", 1}, {"waddr", 3}, {"in", 0x5a}})
    twin.Poke(pin, v);
  twin.Pass(Twin::Kind::kSave, st);
  EXPECT_EQ(twin.dut().PeekMemory("mem", 3).value(), 0x5au);
}

// A pass that starts with a port's write strobe high writes through the
// port, so a proven controller must still shift bit by bit.
TEST(ScanShortcutProofTest, PassStartingWithWenHighFallsBack) {
  auto inst = MustInstrument(Compile(kMixedDesign));
  Twin twin(inst);
  ASSERT_TRUE(twin.ctrl().shortcut_proven());
  Rng rng(13);
  auto st = RandomState(inst.design, &rng);
  st.memories[0][0] = 0;
  twin.Randomize(st, &rng);
  twin.Poke("scan_mem_wen", 1);
  twin.Poke("scan_mem_wdata", 0xa5);
  twin.Pass(Twin::Kind::kSave, st);
  EXPECT_EQ(twin.dut().PeekMemory("mem", 0).value(), 0xa5u);
}

}  // namespace
}  // namespace hardsnap::scanchain
