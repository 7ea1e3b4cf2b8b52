// Concrete RV32IM CPU model.
//
// The fast path for concrete workloads (fuzzing, firmware bring-up). It runs
// the instruction semantics of vm/execute.h, which the symbolic executor
// shares, over plain uint32_t; its own are the native arithmetic, the byte
// store, fetch and the coverage log. Because its arithmetic is native, it is
// the reference the differential test holds the executor's term arithmetic
// to.
//
// Like the symbolic executor, MMIO-window accesses are forwarded to a
// HardwareTarget and the hardware advances `cycles_per_instruction` per
// retired instruction. CpuState is a plain value: copy it out for a
// software snapshot, assign it back to restore — pair it with
// HardwareTarget::SaveState() for a full HardSnap-style SW+HW snapshot.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bus/target.h"
#include "common/status.h"
#include "vm/assembler.h"
#include "vm/isa.h"
#include "vm/memmap.h"

namespace hardsnap::vm {

struct CpuState {
  std::array<uint32_t, 32> regs{};
  uint32_t pc = 0;
  MachineCsrs csr;
  std::vector<uint8_t> ram;  // kRamSize bytes
  uint64_t icount = 0;
};

enum class RunStatus : uint8_t {
  kRunning,        // budget exhausted, resumable
  kExited,         // firmware wrote kHostExit
  kBug,            // memory violation / ebreak / illegal instruction
  kWaiting,        // wfi with interrupts disabled: cannot make progress
  kHardwareError,  // the hardware target's link failed (kUnavailable /
                   // kDeadlineExceeded): an infrastructure fault, NOT a
                   // firmware bug — fuzzers must not report it as a finding
};

struct RunOutcome {
  RunStatus status = RunStatus::kRunning;
  uint32_t exit_code = 0;
  uint32_t fault_pc = 0;
  std::string reason;
};

class Cpu {
 public:
  // `target` may be null for hardware-free firmware (MMIO then faults).
  Cpu(bus::HardwareTarget* target, unsigned cycles_per_instruction = 1);

  Status LoadFirmware(const FirmwareImage& image);

  // Execute up to `max_instructions`; returns early on exit/bug/wait.
  RunOutcome Run(uint64_t max_instructions);

  // Single step (exposed for tracing tools and tests).
  RunOutcome Step();

  // --- snapshotting -----------------------------------------------------
  const CpuState& state() const { return state_; }
  CpuState SnapshotSoftware() const { return state_; }
  void RestoreSoftware(const CpuState& snapshot) { state_ = snapshot; }

  // --- direct access ---------------------------------------------------
  uint32_t reg(unsigned i) const { return state_.regs[i]; }
  uint32_t pc() const { return state_.pc; }
  Status WriteRam(uint32_t addr, const std::vector<uint8_t>& bytes);
  const std::string& console() const { return console_; }

  // Basic-block-entry coverage observed since construction (for the
  // coverage-guided fuzzer): PCs that were targets of taken control flow.
  const std::vector<uint32_t>& coverage_log() const { return coverage_log_; }
  void ClearCoverageLog() { coverage_log_.clear(); }

 private:
  struct Hart;  // this CPU as vm::Execute sees it (cpu.cc)

  bus::HardwareTarget* target_;
  unsigned cycles_per_instruction_;
  FirmwareImage image_;
  CpuState state_;
  std::string console_;
  std::vector<uint32_t> coverage_log_;
};

}  // namespace hardsnap::vm
