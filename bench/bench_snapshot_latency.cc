// E1 — hardware snapshot save/restore latency per peripheral and method
// (paper RQ1: "How long does it take to save/restore a hardware state?").
//
// Reproduces the paper's comparison of the three snapshotting mechanisms:
//   * FPGA scan chain: one pass of state_bits + mem_words fabric cycles —
//     grows linearly with design size, microseconds at 100 MHz;
//   * FPGA vendor readback: dumps the whole fabric configuration —
//     large and almost independent of the design;
//   * simulator + CRIU: checkpoints the whole simulator process —
//     large and independent of the design.
// Expected shape: scan is orders of magnitude faster; only scan scales
// with (small) design size; readback/CRIU are flat.
//
// The table reports modeled hardware time; the google-benchmark section
// below it measures the host wall-clock cost of an emulated scan pass
// (the controller's proven shortcut and its bit-serial fallback) and of
// the simulator state dump.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_json.h"
#include "bus/sim_target.h"
#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "scanchain/scan_controller.h"
#include "scanchain/scan_pass.h"
#include "sim/simulator.h"

using namespace hardsnap;

namespace {

struct Row {
  std::string name;
  rtl::Design design;
};

std::vector<Row> Corpus() {
  std::vector<Row> rows;
  auto add = [&rows](const std::string& name, const std::string& src,
                     const std::string& top) {
    auto d = rtl::CompileVerilog(src, top);
    HS_CHECK_MSG(d.ok(), d.status().ToString());
    rows.push_back(Row{name, std::move(d).value()});
  };
  add("hs_timer", periph::TimerVerilog(), "hs_timer");
  add("hs_uart", periph::UartVerilog(), "hs_uart");
  add("hs_watchdog", periph::WatchdogVerilog(), "hs_watchdog");
  add("hs_aes128", periph::Aes128Verilog(), "hs_aes128");
  add("hs_sha256", periph::Sha256Verilog(), "hs_sha256");
  add("soc (all 4)", periph::BuildSoc(periph::DefaultCorpus()), "soc");
  return rows;
}

// Modeled cost of an incremental (delta) snapshot after a brief burst of
// activity: save once to establish the sync point, run a few cycles, then
// capture only the dirtied chunks. The scan pass itself remains full-length
// (the fabric must always be scanned — E1's linear shape is preserved);
// only the host-link payload and the CRIU image shrink.
Duration DeltaSaveCost(bus::HardwareTarget* t, bus::DeltaSnapshotter* d) {
  HS_CHECK(t->ResetHardware().ok());
  HS_CHECK(t->SaveState().ok());  // sync point
  HS_CHECK(t->Run(20).ok());
  const Duration before = t->clock().now();
  auto delta = d->SaveStateDelta();
  HS_CHECK_MSG(delta.ok(), delta.status().ToString());
  return t->clock().now() - before;
}

void PrintTable() {
  std::printf(
      "E1: hardware snapshot save/restore latency by method\n"
      "%-12s %10s %9s | %14s %14s %14s | %14s %14s\n",
      "design", "FF bits", "mem bits", "scan-chain", "readback", "CRIU",
      "delta-scan", "delta-CRIU");
  for (auto& row : Corpus()) {
    auto stats = row.design.Stats();
    auto fpga = fpga::FpgaTarget::Create(row.design);
    HS_CHECK(fpga.ok());
    auto sim = bus::SimulatorTarget::Create(row.design);
    HS_CHECK(sim.ok());
    const Duration delta_scan =
        DeltaSaveCost(fpga.value().get(), fpga.value().get());
    const Duration delta_criu =
        DeltaSaveCost(sim.value().get(), sim.value().get());
    std::printf("%-12s %10u %9u | %14s %14s %14s | %14s %14s\n",
                row.name.c_str(), stats.num_flop_bits, stats.num_memory_bits,
                fpga.value()->ScanPassCost().ToString().c_str(),
                fpga.value()->ReadbackCost().ToString().c_str(),
                sim.value()->CriuCost().ToString().c_str(),
                delta_scan.ToString().c_str(),
                delta_criu.ToString().c_str());
    benchjson::Add(row.name + ".ff_bits", stats.num_flop_bits);
    benchjson::Add(row.name + ".mem_bits", stats.num_memory_bits);
    benchjson::Add(row.name + ".scan_ps",
                   static_cast<uint64_t>(
                       fpga.value()->ScanPassCost().picos()));
    benchjson::Add(row.name + ".readback_ps",
                   static_cast<uint64_t>(
                       fpga.value()->ReadbackCost().picos()));
    benchjson::Add(row.name + ".criu_ps",
                   static_cast<uint64_t>(sim.value()->CriuCost().picos()));
    benchjson::Add(row.name + ".delta_scan_ps",
                   static_cast<uint64_t>(delta_scan.picos()));
    benchjson::Add(row.name + ".delta_criu_ps",
                   static_cast<uint64_t>(delta_criu.picos()));
  }
  std::printf(
      "\n(scan-chain = state-linear pass at 100 MHz + USB3 command; "
      "readback = full-fabric dump; CRIU = process image freeze+dump; "
      "delta-* = incremental capture of a lightly-dirtied state — the scan "
      "pass stays full-length, only the transferred payload shrinks)\n\n");
}

// Wall-clock: one scan pass on the emulated fabric. The full chain gets
// the controller's proven shortcut; a chain scoped to the SHA-256 core leaves
// the other peripherals' flops unchained, so every pass falls back to
// shifting bit by bit, clocking the whole SoC netlist once per cycle.
constexpr const char* kScopedChain = "u_sha.";

void ScanChainPass(benchmark::State& bm_state, const std::string& scope,
                   bool restore) {
  auto d = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                               "soc");
  HS_CHECK(d.ok());
  auto inst = scanchain::InsertScanChain(d.value(), {scope});
  HS_CHECK(inst.ok());
  auto sim = sim::Simulator::Create(inst.value().design);
  HS_CHECK(sim.ok());
  sim::Simulator simulator = std::move(sim).value();
  HS_CHECK(simulator.PokeInput("uart_rx", 1).ok());
  scanchain::ScanController ctrl(&simulator, inst.value().map);
  auto snapshot = ctrl.Save();
  HS_CHECK(snapshot.ok());
  for (auto _ : bm_state) {
    if (restore) {
      HS_CHECK(ctrl.Restore(snapshot.value()).ok());
    } else {
      auto saved = ctrl.Save();
      benchmark::DoNotOptimize(saved);
    }
  }
  bm_state.SetLabel(std::to_string(inst.value().map.total_bits) +
                    " chain bits, " +
                    (ctrl.shortcut_proven() ? "shortcut" : "bit-serial"));
}

void BM_ScanChainSave(benchmark::State& s) { ScanChainPass(s, "", false); }
BENCHMARK(BM_ScanChainSave)->Unit(benchmark::kMillisecond);

void BM_ScanChainSaveBitSerial(benchmark::State& s) {
  ScanChainPass(s, kScopedChain, false);
}
BENCHMARK(BM_ScanChainSaveBitSerial)->Unit(benchmark::kMillisecond);

// Wall-clock: simulator-native state dump (the primitive under CRIU).
void BM_SimulatorDumpState(benchmark::State& bm_state) {
  auto d = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                               "soc");
  HS_CHECK(d.ok());
  auto sim = sim::Simulator::Create(d.value());
  HS_CHECK(sim.ok());
  for (auto _ : bm_state) {
    auto state = sim.value().DumpState();
    benchmark::DoNotOptimize(state);
  }
}
BENCHMARK(BM_SimulatorDumpState)->Unit(benchmark::kMicrosecond);

// Wall-clock: restore through the scan chain (a full save+restore pass).
void BM_ScanChainRestore(benchmark::State& s) { ScanChainPass(s, "", true); }
BENCHMARK(BM_ScanChainRestore)->Unit(benchmark::kMillisecond);

void BM_ScanChainRestoreBitSerial(benchmark::State& s) {
  ScanChainPass(s, kScopedChain, true);
}
BENCHMARK(BM_ScanChainRestoreBitSerial)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchjson::Emit("snapshot_latency");
  return 0;
}
