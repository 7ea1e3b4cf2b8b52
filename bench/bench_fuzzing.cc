// E7 (extension) — fuzzing throughput: snapshot reset vs device reboot.
//
// Reproduces the paper's motivating observation (Sec. II, citing Muench
// et al.): without snapshots, every fuzzing input requires a full device
// reboot, which dominates the campaign. With HardSnap, one SW+HW snapshot
// is taken at the harness point and restored per input.
//
// Table: modeled campaign time for N executions under each strategy, the
// per-exec reset cost, and the resulting throughput ratio. Expected
// shape: reboot cost (~250 ms/exec) exceeds snapshot restore (an
// incremental CRIU revert, 8 ms, on the simulator target; microseconds
// with the FPGA scan mechanism) — and the gap IS the fuzzing speedup, since everything else
// is identical.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_json.h"
#include "bus/sim_target.h"
#include "firmware/corpus.h"
#include "fpga/fpga_target.h"
#include "fuzz/fuzzer.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "vm/assembler.h"

using namespace hardsnap;

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

vm::FirmwareImage ParserImage() {
  auto img = vm::Assemble(firmware::VulnerableParserFirmware());
  HS_CHECK(img.ok());
  return img.value();
}

void PrintTable() {
  constexpr uint64_t kExecs = 200;
  std::printf(
      "E7: fuzzing campaign cost, %llu execs of the vulnerable parser\n"
      "%-28s %14s %16s %10s %8s\n",
      static_cast<unsigned long long>(kExecs), "strategy/target",
      "reset overhead", "per-exec reset", "crashes", "edges");

  struct Cell {
    const char* label;
    fuzz::ResetStrategy reset;
    bool fpga;
  };
  const Cell cells[] = {
      {"reboot    / simulator", fuzz::ResetStrategy::kRebootReset, false},
      {"snapshot  / simulator", fuzz::ResetStrategy::kSnapshotReset, false},
      {"snapshot  / fpga", fuzz::ResetStrategy::kSnapshotReset, true},
  };

  Duration reboot_overhead, snap_overhead;
  for (const auto& cell : cells) {
    std::unique_ptr<bus::HardwareTarget> target;
    if (cell.fpga) {
      auto t = fpga::FpgaTarget::Create(Soc());
      HS_CHECK(t.ok());
      target = std::move(t).value();
    } else {
      auto t = bus::SimulatorTarget::Create(Soc());
      HS_CHECK(t.ok());
      target = std::move(t).value();
    }
    fuzz::FuzzOptions opts;
    opts.reset = cell.reset;
    opts.input_size = 2;
    opts.seed = 42;
    fuzz::Fuzzer fuzzer(target.get(), ParserImage(), opts);
    auto stats = fuzzer.Run(kExecs);
    HS_CHECK_MSG(stats.ok(), stats.status().ToString());
    const Duration per_exec =
        Duration::Picos(stats.value().reset_overhead.picos() /
                        static_cast<int64_t>(kExecs));
    std::printf("%-28s %14s %16s %10llu %8llu\n", cell.label,
                stats.value().reset_overhead.ToString().c_str(),
                per_exec.ToString().c_str(),
                static_cast<unsigned long long>(stats.value().crashes),
                static_cast<unsigned long long>(stats.value().edges_covered));
    const std::string p = cell.fpga ? "fpga_snapshot"
                          : cell.reset == fuzz::ResetStrategy::kRebootReset
                              ? "sim_reboot"
                              : "sim_snapshot";
    benchjson::Add(p + ".reset_overhead_ps",
                   static_cast<uint64_t>(
                       stats.value().reset_overhead.picos()));
    benchjson::Add(p + ".crashes", stats.value().crashes);
    benchjson::Add(p + ".edges", stats.value().edges_covered);
    if (cell.reset == fuzz::ResetStrategy::kRebootReset)
      reboot_overhead = stats.value().reset_overhead;
    else if (!cell.fpga)
      snap_overhead = stats.value().reset_overhead;
  }
  if (snap_overhead.picos() > 0) {
    const double ratio = static_cast<double>(reboot_overhead.picos()) /
                         static_cast<double>(snap_overhead.picos());
    std::printf("\nreboot/snapshot reset-cost ratio (simulator): %.1fx\n\n",
                ratio);
    benchjson::Add("reboot_vs_snapshot_ratio", ratio);
  }
}

void BM_FuzzExecsSnapshot(benchmark::State& state) {
  auto t = bus::SimulatorTarget::Create(Soc());
  HS_CHECK(t.ok());
  fuzz::FuzzOptions opts;
  opts.input_size = 2;
  fuzz::Fuzzer fuzzer(t.value().get(), ParserImage(), opts);
  uint64_t execs = 0;
  for (auto _ : state) {
    HS_CHECK(fuzzer.Run(10).ok());
    execs += 10;
  }
  state.SetItemsProcessed(static_cast<int64_t>(execs));
}
BENCHMARK(BM_FuzzExecsSnapshot)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchjson::Emit("fuzzing");
  return 0;
}
