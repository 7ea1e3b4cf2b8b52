// hardsnap::Session — the framework's public entry point (paper Fig. 2).
//
// A session compiles a set of Verilog peripherals into one SoC, boots it
// on the requested hardware target(s) (software simulator, emulated FPGA,
// or both with live state transfer), and runs firmware under the selective
// symbolic virtual machine with hardware/software co-snapshotting.
//
// Typical use:
//
//   hardsnap::core::SessionConfig cfg;            // default corpus, sim
//   auto session = hardsnap::core::Session::Create(cfg);
//   session->LoadFirmwareAsm(my_driver_asm);
//   session->MakeSymbolicRegister(10, "input");   // a0 is attacker data
//   auto report = session->Run();
//   // report.bugs[i].test_case reproduces each finding
//
// For hardware-only testing (software testbench, no firmware), use
// hardware() to drive the register bus directly, and the snapshotting
// calls to save/restore device state around experiments.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bus/sim_target.h"
#include "common/status.h"
#include "fpga/fpga_target.h"
#include "periph/periph.h"
#include "rtl/ir.h"
#include "core/property.h"
#include "snapshot/orchestrator.h"
#include "symex/executor.h"
#include "vm/assembler.h"

namespace hardsnap::core {

// HardwareTarget proxy that always forwards to the orchestrator's active
// target, so the executor transparently follows MoveToTarget() calls.
// Forwards the DeltaSnapshotter capability too — without this the
// capability lookup in snapshot::HwStateTracker sees only the proxy and
// every context switch silently pays the full-copy price.
//
// The proxy is also where mid-analysis failover happens: when an operation
// fails because the active target's link died (IsInfrastructureFailure),
// the proxy asks the orchestrator to FailOver() to a responsive standby
// and retries the operation once there. Analysis code above sees either a
// successful operation on the survivor or the original failure when no
// standby exists — never a crash.
class OrchestratedTarget : public bus::HardwareTarget,
                           public bus::DeltaSnapshotter {
 public:
  explicit OrchestratedTarget(snapshot::TargetOrchestrator* orch)
      : orch_(orch) {}
  bus::TargetKind kind() const override { return orch_->active().kind(); }
  const std::string& name() const override { return orch_->active().name(); }
  Result<uint32_t> Read32(uint32_t addr) override {
    return WithFailover([&](bus::HardwareTarget& t) { return t.Read32(addr); });
  }
  Status Write32(uint32_t addr, uint32_t value) override {
    return WithFailover(
        [&](bus::HardwareTarget& t) { return t.Write32(addr, value); });
  }
  Status Run(uint64_t cycles) override {
    return WithFailover([&](bus::HardwareTarget& t) { return t.Run(cycles); });
  }
  uint32_t IrqVector() override { return orch_->active().IrqVector(); }
  Status ResetHardware() override {
    // The reset moves the live state without a migration: the state the
    // orchestrator last shipped here is gone, so the delta base must not
    // be trusted for the next MoveTo.
    return WithFailover([&](bus::HardwareTarget& t) {
      orch_->InvalidateMirror(orch_->active_index());
      return t.ResetHardware();
    });
  }
  Result<sim::HardwareState> SaveState() override {
    return WithFailover([](bus::HardwareTarget& t) { return t.SaveState(); });
  }
  Status RestoreState(const sim::HardwareState& state) override {
    return WithFailover(
        [&](bus::HardwareTarget& t) { return t.RestoreState(state); });
  }
  Result<uint64_t> StateHash() override { return orch_->active().StateHash(); }
  bool responsive() const override { return orch_->active().responsive(); }
  const VirtualClock& clock() const override {
    return orch_->active().clock();
  }
  const bus::TargetStats& stats() const override {
    return orch_->active().stats();
  }
  Result<sim::StateDelta> SaveStateDelta() override {
    auto* d = dynamic_cast<bus::DeltaSnapshotter*>(&orch_->active());
    if (!d) {
      // Degrade to a full capture expressed as a self-contained delta.
      auto st = orch_->active().SaveState();
      if (!st.ok()) return st.status();
      return sim::FullDelta(st.value());
    }
    return d->SaveStateDelta();
  }
  Status RestoreStateDelta(const sim::StateDelta& delta) override {
    auto* d = dynamic_cast<bus::DeltaSnapshotter*>(&orch_->active());
    if (!d)
      return FailedPrecondition("active target has no incremental restore");
    return d->RestoreStateDelta(delta);
  }

 private:
  // True when `s` says the active target's link is gone AND failover to a
  // responsive standby succeeded — i.e. the caller should retry the
  // operation once on the new active target. Delta ops deliberately do
  // NOT fail over here: after a failover the survivor's delta sync point
  // is gone, and their callers (fuzzer, executor) already carry a
  // full-restore fallback that re-establishes one.
  bool ShouldFailOver(const Status& s) {
    if (s.ok() || !IsInfrastructureFailure(s.code())) return false;
    return orch_->FailOver().ok();
  }
  static const Status& StatusOf(const Status& s) { return s; }
  template <class T>
  static const Status& StatusOf(const Result<T>& r) {
    return r.status();
  }
  // Runs `op` on the active target, and once more on the new active
  // target when ShouldFailOver says so.
  template <class Op>
  std::invoke_result_t<Op, bus::HardwareTarget&> WithFailover(Op op) {
    auto r = op(orch_->active());
    if (!ShouldFailOver(StatusOf(r))) return r;
    return op(orch_->active());
  }

  snapshot::TargetOrchestrator* orch_;
};

struct SessionConfig {
  // Peripherals to build into the SoC (default: the paper's 4-IP corpus).
  std::vector<periph::PeripheralInfo> peripherals;

  // Which target executes the hardware. kBoth builds simulator + FPGA and
  // starts on the FPGA (fast), allowing MoveToTarget() at any time.
  enum class Target { kSimulator, kFpga, kBoth };
  Target target = Target::kSimulator;

  bus::SimulatorTargetOptions simulator_options;
  fpga::FpgaTargetOptions fpga_options;
  symex::ExecOptions exec;
};

struct HardwareInfo {
  rtl::DesignStats soc_stats;
  unsigned scan_chain_bits = 0;   // 0 when no FPGA target present
  unsigned scan_mem_words = 0;
};

class Session {
 public:
  static Result<std::unique_ptr<Session>> Create(SessionConfig config);

  // Independent session with the same configuration, firmware, symbolic
  // declarations and properties — but its own compiled SoC, targets,
  // solver context and executor, so clones may run on separate threads
  // (campaign workers). `exec_override` lets each worker vary the search
  // strategy / seed. Hardware invariants are recompiled from source
  // against the clone's design; raw AddAssertion callbacks are copied
  // as-is and therefore must be self-contained (capture no state of the
  // session they were first added to).
  Result<std::unique_ptr<Session>> Clone(
      std::optional<symex::ExecOptions> exec_override = {}) const;

  // --- firmware ------------------------------------------------------
  Status LoadFirmwareAsm(const std::string& assembly);
  Status LoadFirmware(const vm::FirmwareImage& image);
  const vm::FirmwareImage& firmware() const { return image_; }

  // --- symbolic inputs & properties ----------------------------------
  solver::TermId MakeSymbolicRegister(unsigned reg, const std::string& name);
  Status MakeSymbolicRegion(uint32_t addr, unsigned bytes,
                            const std::string& name);
  void AddAssertion(symex::Executor::AssertionFn fn);

  // High-level hardware invariant over hierarchical signal names, e.g.
  // "!(u_aes.busy && u_aes.done)". Checked after every instruction of
  // every state via the full-visibility simulator target; requires one
  // (this is precisely what the FPGA target cannot offer — move the state
  // over when you need invariants).
  Status AddHardwareInvariant(const std::string& property);

  // --- analysis ---------------------------------------------------------
  // Runs the symbolic VM on the active target. May be called once per
  // session (states and solver context live in the executor).
  Result<symex::Report> Run();

  // --- direct hardware access (software testbench mode) -----------------
  bus::HardwareTarget& hardware() { return orchestrator_->active(); }
  snapshot::TargetOrchestrator& orchestrator() { return *orchestrator_; }
  Status MoveToTarget(bus::TargetKind kind);

  // The compiled SoC (for inspection / custom simulators).
  const rtl::Design& soc() const { return *soc_; }
  // Executor options the session was created with (Clone callers start
  // from these when overriding seed / search strategy per worker).
  const symex::ExecOptions& exec_options() const { return config_.exec; }
  HardwareInfo hardware_info() const;

  // Full-visibility handle when a simulator target exists (tracing).
  bus::SimulatorTarget* simulator_target() { return sim_target_.get(); }
  fpga::FpgaTarget* fpga_target() { return fpga_target_.get(); }

 private:
  Session() = default;

  // Declarations recorded so Clone can replay them into a fresh session.
  struct SymRegDecl {
    unsigned reg;
    std::string name;
  };
  struct SymRegionDecl {
    uint32_t addr;
    unsigned bytes;
    std::string name;
  };

  SessionConfig config_;
  bool firmware_loaded_ = false;
  std::vector<SymRegDecl> sym_regs_;
  std::vector<SymRegionDecl> sym_regions_;
  std::vector<std::string> invariant_sources_;
  std::vector<symex::Executor::AssertionFn> raw_assertions_;
  std::unique_ptr<rtl::Design> soc_;
  std::unique_ptr<bus::SimulatorTarget> sim_target_;
  std::unique_ptr<fpga::FpgaTarget> fpga_target_;
  std::unique_ptr<snapshot::TargetOrchestrator> orchestrator_;
  std::unique_ptr<OrchestratedTarget> proxy_target_;
  std::unique_ptr<symex::Executor> executor_;
  vm::FirmwareImage image_;
};

}  // namespace hardsnap::core
