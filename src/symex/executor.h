// The selective symbolic virtual machine (paper Sec. III-B / IV-B).
//
// Interprets RV32IM firmware over solver terms by running the instruction
// semantics of vm/execute.h (shared with the concrete vm::Cpu) over
// BvContext terms. Its own parts are the term arithmetic (div and rem built
// from magnitudes), the byte-granular memory overlay, fetch, concretization
// and forking, and the bug hooks. It forwards MMIO-window accesses to a
// hardware target, forks on symbolic branch conditions and — the paper's
// contribution — keeps every software state paired with its own hardware
// snapshot via the hardware context switch of Algorithm 1:
//
//     S = SelectNextState(AS, S_previous)
//     if S_previous != ∅ and S != S_previous:
//         UpdateState(S_previous)   // live hardware -> S_previous's snapshot
//         RestoreState(S)           // S's snapshot  -> live hardware
//     ServePendingInterrupt(S)
//     ExecuteInstruction(S)
//
// UpdateState and RestoreState are snapshot::HwStateTracker's Save and
// Restore; each state holds its snapshot as a tracker handle.
//
// Three consistency modes reproduce the paper's Fig. 1 comparison:
//   kHardSnap          — Algorithm 1 (consistent AND fast).
//   kNaiveConsistent   — semantically the re-execution flow: every state
//                        switch costs a device reboot plus re-running the
//                        state's whole instruction prefix. (Implementation
//                        note: correctness is obtained by restoring the
//                        snapshot; the *cost* of the reboot + replay is
//                        charged to the virtual clock and reported, which
//                        is the measurable quantity of experiment E4.)
//   kNaiveInconsistent — hardware-in-the-loop style: all states share the
//                        live hardware with no snapshotting; fast but
//                        wrong, producing the false negatives/positives of
//                        experiment E5.
#pragma once

#include <functional>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "bus/target.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "snapshot/hw_state_tracker.h"
#include "solver/bitblast.h"
#include "solver/term.h"
#include "symex/searcher.h"
#include "symex/state.h"
#include "vm/assembler.h"

namespace hardsnap::symex {

enum class ConsistencyMode : uint8_t {
  kHardSnap,
  kNaiveConsistent,
  kNaiveInconsistent,
};
const char* ConsistencyModeName(ConsistencyMode mode);

// What to do when a symbolic value crosses the VM boundary into the
// concrete hardware domain (paper Sec. III-B "Concretization policy").
enum class ConcretizationPolicy : uint8_t {
  kSingleValue,  // performance: pick one satisfying value, constrain to it
  kAllValues,    // completeness: fork one state per satisfying value
                 // (bounded by ExecOptions::max_concretization_fanout)
};

struct ExecOptions {
  ConsistencyMode mode = ConsistencyMode::kHardSnap;

  // Called after every executed instruction with the state that ran it
  // (tracing, progress reporting, external invariant monitors). Keep it
  // cheap: it sits on the hot path.
  std::function<void(const State&)> step_hook;
  ConcretizationPolicy concretization = ConcretizationPolicy::kSingleValue;
  SearchStrategy search = SearchStrategy::kBfs;
  uint64_t seed = 1;

  uint64_t max_instructions = 2'000'000;  // global budget
  uint64_t max_states = 4096;             // live state cap
  uint64_t max_paths = 100000;            // completed path cap
  unsigned max_concretization_fanout = 8;

  // Hardware cycles per executed firmware instruction (peripherals run
  // concurrently with the CPU).
  unsigned cycles_per_instruction = 1;

  // Scheduler time slice: how many instructions a state executes before
  // the searcher may pick a different state (KLEE-style batching). Larger
  // slices amortize hardware context switches; 1 = switch-per-instruction.
  unsigned instructions_per_slice = 32;

  // Keep per-state hardware snapshots in the target's on-device SRAM
  // slots when the target supports them (paper: the FPGA snapshot
  // controller's SRAM): a context switch then costs two scan passes and
  // never crosses the host link. Falls back to host storage when slots
  // run out or the target has none.
  bool use_device_slots = true;

  // Route host-side snapshot traffic through the target's incremental
  // interface (bus::DeltaSnapshotter) when it has one, so only changed
  // chunks cross the link; snapshot::HwStateTracker falls back to full
  // transfers whenever no usable base exists.
  bool use_delta_snapshots = true;

  // Byte cap on the host-side snapshot store's resident chunks (0 =
  // unlimited). An ingestion that would exceed it fails with
  // kResourceExhausted instead of growing without bound (CLI:
  // --max-store-bytes).
  uint64_t max_store_bytes = 0;

  // Modeled cost of a full device reboot (naive-consistent mode).
  Duration reboot_cost = Duration::Millis(250);
  // Modeled per-instruction cost of re-executing a prefix after a reboot.
  Duration replay_cost_per_instruction = Duration::Micros(2);
};

struct TestCase {
  std::string origin;  // "exit", "bug: ...", state id
  std::map<std::string, uint64_t> inputs;
};

struct Bug {
  uint32_t pc = 0;
  std::string kind;    // "out-of-bounds store", "ebreak", ...
  std::string detail;
  TestCase test_case;
};

struct Report {
  std::vector<Bug> bugs;
  std::vector<TestCase> test_cases;
  uint64_t paths_completed = 0;
  uint64_t paths_exited = 0;
  std::vector<uint32_t> exit_codes;  // one per exited path, in finish order
  uint64_t forks = 0;
  uint64_t instructions = 0;
  uint64_t interrupts_served = 0;
  uint64_t hw_context_switches = 0;
  uint64_t replayed_instructions = 0;  // naive-consistent re-execution work
  uint64_t reboots = 0;
  uint64_t concretizations = 0;
  uint64_t solver_queries = 0;
  uint64_t covered_pcs = 0;  // unique instruction addresses executed
  // Snapshot traffic accounting (experiment: delta vs full transfers).
  uint64_t snapshot_bytes_copied = 0;  // bytes that crossed the host link
  uint64_t snapshot_bytes_shared = 0;  // store chunk bytes satisfied by dedup
  double snapshot_dedup_ratio = 0.0;   // shared / (copied+shared) in the store
  Duration analysis_hw_time;   // target virtual time at end
  Duration replay_overhead;    // extra virtual time charged for replays
  // Transport retry/fault counters from the target's framed link: how
  // hard the host had to work to keep the analysis running on an
  // unreliable channel (zero on a clean link).
  bus::LinkStats link;
  std::string console;         // concatenated console output of all paths

  std::string Summary() const;
  // Machine-readable rendering (stable keys; for CI pipelines / the CLI).
  std::string ToJson() const;
};

class Executor {
 public:
  // `target` must be reset and outlive the executor.
  Executor(bus::HardwareTarget* target, ExecOptions options);

  Status LoadFirmware(const vm::FirmwareImage& image);

  // Mark architectural inputs symbolic before Run().
  solver::TermId MakeSymbolicRegister(unsigned reg, const std::string& name);
  Status MakeSymbolicRegion(uint32_t addr, unsigned bytes,
                            const std::string& name);

  // User assertion: called after every instruction of every state; return
  // a non-empty string to flag a bug with that description.
  using AssertionFn = std::function<std::string(const State&)>;
  void AddAssertion(AssertionFn fn) { assertions_.push_back(std::move(fn)); }

  Result<Report> Run();

  solver::BvContext& ctx() { return ctx_; }
  const ExecOptions& options() const { return options_; }

 private:
  using TermId = solver::TermId;

  // --- execution -------------------------------------------------------
  struct Hart;  // a state as vm::Execute sees it (executor.cc)
  // Serves a pending interrupt, then fetches and executes one instruction.
  Status Step(State& s, Report* report);
  void FlagBug(State& s, const std::string& kind, const std::string& detail,
               Report* report);
  void FinishPath(State& s, Report* report);

  // Branch forking: returns the state to continue with (possibly s).
  Status ForkOnCondition(State& s, TermId cond, uint32_t taken_pc,
                         uint32_t fallthrough_pc, Report* report);

  // Concretize a symbolic value at the VM boundary per policy; may fork.
  Result<uint32_t> Concretize(State& s, TermId value, const char* what,
                              Report* report);

  // Evaluate a term under the current path condition, returning a model.
  Result<uint64_t> SolveForValue(State& s, TermId value);
  // Is the path condition plus `extra` satisfiable?
  Result<bool> Feasible(State& s, TermId extra);

  // --- hardware context switch (Algorithm 1) -----------------------------
  Status HwContextSwitch(State* previous, State& next, Report* report);

  // --- state management -------------------------------------------------
  State* AddState(std::unique_ptr<State> state);
  void RemoveState(State* state);
  TestCase SolveTestCase(State& s, const std::string& origin);

  bus::HardwareTarget* target_;
  ExecOptions options_;
  snapshot::HwStateTracker hw_;
  solver::BvContext ctx_;
  solver::BvSolver solver_;

  vm::FirmwareImage image_;
  std::unique_ptr<State> initial_;
  std::vector<std::unique_ptr<State>> states_;
  std::unique_ptr<Searcher> searcher_;
  std::vector<AssertionFn> assertions_;
  StateId next_state_id_ = 1;
  unsigned iterations_since_sweep_ = 0;
  std::set<uint32_t> covered_pcs_;
  VirtualClock replay_clock_;  // naive-consistent overhead accounting
};

}  // namespace hardsnap::symex
