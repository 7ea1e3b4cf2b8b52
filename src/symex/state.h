// Execution state of the selective symbolic virtual machine.
//
// Paper Sec. IV-B: a software state is S_sw = {PC, F, G}; HardSnap extends
// it with a hardware snapshot id so that S = S_sw ∪ S_hw. Here the
// software state is the RV32 architectural state (registers + memory +
// machine CSRs) with solver terms as values, plus the path condition; the
// hardware half is a handle into the executor's snapshot::HwStateTracker.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "snapshot/hw_state_tracker.h"
#include "solver/term.h"
#include "vm/isa.h"

namespace hardsnap::symex {

using StateId = uint64_t;

enum class StateStatus : uint8_t {
  kRunning,
  kExited,       // firmware wrote kHostExit
  kBug,          // memory error / ebreak / failed assertion
  kTerminated,   // budget or user stop
};

// A named symbolic input created in this state's history (for test-case
// generation: solving the path condition gives each input a value).
struct SymbolicInput {
  std::string name;
  solver::TermId var = solver::kNoTerm;
  unsigned bytes = 0;
};

struct State {
  StateId id = 0;

  // --- software state -------------------------------------------------
  uint32_t pc = 0;
  std::array<solver::TermId, 32> regs{};  // regs[0] stays the zero const
  // Byte-granular overlay memory: RAM and ROM writes land here; reads fall
  // back to the firmware image / zero. 8-bit terms.
  std::map<uint32_t, solver::TermId> mem;

  // Machine-mode CSRs (concrete; interrupt plumbing only).
  vm::MachineCsrs csr;

  // Path condition: conjunction of 1-bit terms.
  std::vector<solver::TermId> constraints;

  // Symbolic inputs created so far (inherited across forks).
  std::vector<SymbolicInput> inputs;

  // --- hardware state ---------------------------------------------------
  snapshot::HwHandle hw;

  // --- bookkeeping -----------------------------------------------------
  StateStatus status = StateStatus::kRunning;
  uint32_t exit_code = 0;
  std::string stop_reason;
  uint64_t icount = 0;           // instructions executed on this path
  uint64_t depth = 0;            // forks since the initial state
  std::string console;           // bytes written to the host console

  // States are copied on fork; everything above is value-semantic except
  // the hardware handle: the child starts with none, because every state
  // owns its own, non-shared hardware snapshot.
  std::unique_ptr<State> Fork() const {
    auto child = std::make_unique<State>(*this);
    child->hw = {};
    return child;
  }
};

}  // namespace hardsnap::symex
