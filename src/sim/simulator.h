// Cycle-accurate netlist simulator (the repo's Verilator stand-in).
//
// A Simulator owns the full state of one elaborated Design:
//   * one 64-bit lane per signal (inputs, wires, regs),
//   * one word vector per memory.
//
// Execution model (two-phase, single clock domain):
//   Eval()  — settle combinational logic: evaluate comb assignments in
//             topological order. Idempotent; called automatically by the
//             public API whenever inputs changed.
//   Tick(n) — run n clock cycles: for each cycle, Eval(), then compute all
//             flip-flop next-values and memory writes against the settled
//             pre-edge state, then commit them atomically (non-blocking
//             assignment semantics), then Eval() again so outputs reflect
//             the post-edge state.
//
// Full visibility/controllability (the property the paper's simulator
// target provides): any signal or memory word can be peeked or poked by
// name at any time, and DumpState()/RestoreState() capture exactly the
// architectural state (flip-flops + memories) — the same bits the scan
// chain extracts on the FPGA target.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "rtl/ir.h"
#include "sim/delta.h"

namespace hardsnap::sim {

// Architectural state of a design: flip-flop values (indexed by flop order
// in the Design) and memory contents (indexed by memory id). This is the
// canonical "hardware snapshot" payload; the scan chain and the simulator
// both produce/consume it, which is what makes cross-target state transfer
// possible (paper Sec. III-B "multi-target orchestration").
struct HardwareState {
  std::vector<uint64_t> flops;                // one entry per FlipFlop
  std::vector<std::vector<uint64_t>> memories;  // [memory id][word]

  bool operator==(const HardwareState&) const = default;
};

class Simulator {
 public:
  // Compiles the design: levelizes combinational assignments and builds a
  // linear evaluation schedule. Fails on combinational cycles. The
  // simulator keeps its own copy of the design, so the argument may be a
  // temporary.
  static Result<Simulator> Create(const rtl::Design& design);

  const rtl::Design& design() const { return design_; }

  // --- stimulus ------------------------------------------------------------
  Status PokeInput(const std::string& name, uint64_t value);
  Status PokeInput(rtl::SignalId id, uint64_t value);

  // Advance one or more clock cycles. Reset is just an input: drive it
  // with PokeInput and Tick.
  void Tick(unsigned cycles = 1);

  // Settle combinational logic without a clock edge (e.g. to observe a
  // combinational output after changing an input mid-cycle). Evaluation is
  // lazy: pokes only mark the netlist dirty and the next observation or
  // clock edge settles it, so bursts of pokes cost one evaluation.
  void Eval() const;

  // Convenience: assert the design's reset input for `cycles` cycles.
  Status Reset(unsigned cycles = 2);

  // --- full visibility -----------------------------------------------------
  Result<uint64_t> Peek(const std::string& name) const;
  uint64_t PeekId(rtl::SignalId id) const {
    Eval();
    return values_[id];
  }
  Result<uint64_t> PeekMemory(const std::string& name, unsigned index) const;

  // Full controllability: overwrite a register or memory word. Poking a
  // wire is rejected (it would be overwritten by Eval and indicates a
  // test bug).
  Status PokeRegister(const std::string& name, uint64_t value);
  Status PokeMemory(const std::string& name, unsigned index, uint64_t value);

  // --- snapshotting --------------------------------------------------------
  HardwareState DumpState() const;
  // Overwrites the architectural state. Only words that actually differ
  // from the live state are written (restoring a sibling of the current
  // state touches O(diff) words), and the call establishes a new dirty-
  // tracking sync point (see below).
  Status RestoreState(const HardwareState& state);
  // This design's flop count and memory depths.
  const StateShape& shape() const { return shape_; }

  // --- delta snapshotting --------------------------------------------------
  // The simulator tracks which kChunkWords-sized chunks of architectural
  // state changed since the last *sync point*. Sync points are:
  // construction, CaptureDelta(), RestoreDelta(), RestoreState(), and
  // MarkSynced(). Flop commits, memory writes, and register/memory pokes
  // mark chunks dirty only when a value actually changes.
  //
  // Captures the chunks dirtied since the last sync point as a delta
  // against that point's state, then starts a new sync point. Cost is
  // O(dirty chunks), not O(design). At construction everything is dirty,
  // so the first capture is a full baseline.
  StateDelta CaptureDelta();
  // Restores the state `delta` away from the last sync point: applies the
  // delta's chunks and reverts any other chunks dirtied since the sync
  // point. The whole delta is checked (shape, chunks and, when
  // delta.base_hash is set, the sync point's hash) before anything is
  // written, so a rejected delta changes nothing. Words truncate to their
  // flop's or memory's width, as in RestoreState. Starts a new sync point
  // at the restored state.
  Status RestoreDelta(const StateDelta& delta);
  // Declares the current live state a sync point without capturing.
  void MarkSynced();

  // Commits `next` as the state that `cycles` clock edges produce, without
  // simulating them: like an edge it truncates to width, marks changed
  // chunks dirty and starts no new sync point; cycle_count() advances by
  // `cycles`. For a caller that has proven what those edges compute (the
  // scan controller's shortcut). `next` must have the design's shape.
  void CommitState(const HardwareState& next, uint64_t cycles);

  // Cycles executed since construction (not part of architectural state).
  uint64_t cycle_count() const { return cycle_count_; }

  // Expression evaluation against current values (shared with testbenches).
  uint64_t EvalExpr(rtl::ExprId e) const;

 private:
  explicit Simulator(const rtl::Design& design);

  Status Levelize();
  void CommitEdge();
  // Writes `st` over the live state, truncating each word to width; with
  // `mark_dirty` each change marks its chunk, as a clock edge does.
  void WriteState(const HardwareState& st, bool mark_dirty);
  // Copies the live state into the shadow and clears every dirty bit.
  void Resync();
  // Word `word` of chunk space `space` of the live state, and its width.
  uint64_t& Live(uint32_t space, size_t word);
  unsigned LiveWidth(uint32_t space, size_t word) const;

  rtl::Design design_;
  // Lazily settled: `dirty_` marks pending input/state pokes; Eval() is
  // conceptually const (it completes the observable state).
  mutable std::vector<uint64_t> values_;         // per signal
  mutable bool dirty_ = true;
  std::vector<std::vector<uint64_t>> memories_;  // per memory
  std::vector<uint32_t> comb_order_;             // comb() indices, topo order
  // staging for the two-phase edge commit
  std::vector<uint64_t> flop_next_;
  uint64_t cycle_count_ = 0;

  // --- dirty-state change tracking --------------------------------------
  // Shadow copy of the architectural state at the last sync point, plus
  // one per-chunk dirty bitmap per chunk space.
  std::vector<int32_t> flop_of_signal_;  // SignalId -> flop index, -1 none
  StateShape shape_;
  HardwareState shadow_;
  std::vector<ChunkBitmap> dirty_chunks_;  // [space]
};

}  // namespace hardsnap::sim
