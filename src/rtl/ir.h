// Register-transfer-level intermediate representation.
//
// A Design is a *flattened* synchronous netlist: one clock domain, one
// optional synchronous reset, signals of up to 64 bits, word-addressed
// memories, combinational assignments and flip-flops. The Verilog front-end
// (parser + elaborator) produces this IR; the cycle-accurate simulator
// (src/sim) executes it; the scan-chain pass (src/scanchain) rewrites it.
//
// Design decisions mirroring the paper:
//  * State = flip-flops + memories. These are exactly the elements a
//    hardware snapshot must capture and exactly what the scan chain
//    threads through (Sec. III-A / IV-A of the paper).
//  * Combinational logic is pure and derivable from state + inputs, so a
//    snapshot never needs to store it ("Knowing the value of hardware
//    registers enables us to infer the value of combinatorial elements").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hardsnap::rtl {

using SignalId = int32_t;
using MemoryId = int32_t;
using ExprId = int32_t;
inline constexpr int32_t kInvalidId = -1;

enum class SignalKind : uint8_t {
  kInput,   // driven from outside the design (testbench / bus)
  kOutput,  // driven by the design, visible outside
  kWire,    // internal combinational net
  kReg,     // flip-flop output (state element)
};

struct Signal {
  std::string name;   // flattened hierarchical name, e.g. "u_core.count"
  unsigned width = 1; // 1..64
  SignalKind kind = SignalKind::kWire;
};

struct Memory {
  std::string name;
  unsigned width = 1;   // word width, 1..64
  unsigned depth = 1;   // number of words
};

// Expression opcodes. All arithmetic is unsigned modulo 2^width unless the
// op name says otherwise; widths are fixed at construction time.
enum class Op : uint8_t {
  kConst,    // imm, width
  kSignal,   // signal (current value)
  kMemRead,  // memory word read: arg0 = address (asynchronous read port)
  // unary
  kNot,      // bitwise complement
  kNeg,      // two's complement negate
  kRedAnd,   // &x  -> 1 bit
  kRedOr,    // |x  -> 1 bit
  kRedXor,   // ^x  -> 1 bit
  kLogicNot, // !x  -> 1 bit
  // binary
  kAnd, kOr, kXor,
  kAdd, kSub, kMul,
  kDiv, kMod,           // unsigned; divide-by-zero yields all-ones / lhs
  kEq, kNe,
  kLtU, kLeU, kGtU, kGeU,
  kLtS, kLeS, kGtS, kGeS,   // signed comparisons ($signed operands)
  kShl, kShrL, kShrA,
  kLogicAnd, kLogicOr,      // 1-bit results, non-short-circuit (hardware)
  // other
  kMux,      // arg0 ? arg1 : arg2
  kConcat,   // {arg0, arg1, ...}  arg0 is most significant
  kSlice,    // arg0[hi:lo]
  kZext,     // zero-extend arg0 to width
  kSext,     // sign-extend arg0 to width
};

const char* OpName(Op op);
bool IsUnary(Op op);
bool IsBinary(Op op);

// Expression node in a per-Design arena. Nodes are immutable after
// creation; sharing is allowed and encouraged (the elaborator CSEs
// constants and signal reads).
struct Expr {
  Op op = Op::kConst;
  unsigned width = 1;          // result width in bits
  uint64_t imm = 0;            // kConst value
  SignalId signal = kInvalidId;  // kSignal
  MemoryId memory = kInvalidId;  // kMemRead
  unsigned hi = 0, lo = 0;       // kSlice bounds
  std::vector<ExprId> args;
};

// wire = expr (continuous assignment / lowered always@* block).
struct CombAssign {
  SignalId target = kInvalidId;
  ExprId value = kInvalidId;
};

// Flip-flop: on posedge clk, q <= reset ? reset_value : next.
// Reset is synchronous and optional (reset_value < 0 means no reset term;
// the elaborator folds `if (rst) q <= K; else ...` into this form).
struct FlipFlop {
  SignalId q = kInvalidId;
  ExprId next = kInvalidId;     // includes any enable muxing (q as default)
  bool has_reset = false;
  uint64_t reset_value = 0;
};

// Synchronous memory write port: on posedge clk,
//   if (enable) mem[addr] <= data.
struct MemWrite {
  MemoryId memory = kInvalidId;
  ExprId enable = kInvalidId;
  ExprId addr = kInvalidId;
  ExprId data = kInvalidId;
};

// Summary statistics used by the scan-chain overhead bench (E3).
struct DesignStats {
  unsigned num_signals = 0;
  unsigned num_flops = 0;          // flip-flop instances (multi-bit count 1)
  unsigned num_flop_bits = 0;      // total register state bits
  unsigned num_memories = 0;
  unsigned num_memory_bits = 0;    // total memory state bits
  unsigned num_comb_assigns = 0;
  unsigned num_expr_nodes = 0;     // gate-count proxy
  unsigned state_bits() const { return num_flop_bits + num_memory_bits; }
};

class Design {
 public:
  explicit Design(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- construction -------------------------------------------------------
  SignalId AddSignal(std::string name, unsigned width, SignalKind kind);
  MemoryId AddMemory(std::string name, unsigned width, unsigned depth);

  ExprId Const(uint64_t value, unsigned width);
  ExprId Sig(SignalId s);
  ExprId MemRead(MemoryId m, ExprId addr);
  ExprId Unary(Op op, ExprId a);
  ExprId Binary(Op op, ExprId a, ExprId b);
  ExprId Mux(ExprId sel, ExprId then_e, ExprId else_e);
  ExprId Concat(std::vector<ExprId> parts);
  ExprId Slice(ExprId a, unsigned hi, unsigned lo);
  ExprId Extend(Op op, ExprId a, unsigned width);  // kZext / kSext

  void AddComb(SignalId target, ExprId value);
  void AddFlop(FlipFlop ff);
  void AddMemWrite(MemWrite mw);

  void SetClock(SignalId clk) { clock_ = clk; }
  void SetReset(SignalId rst) { reset_ = rst; }

  // --- access --------------------------------------------------------------
  const std::vector<Signal>& signals() const { return signals_; }
  const std::vector<Memory>& memories() const { return memories_; }
  const std::vector<Expr>& exprs() const { return exprs_; }
  const std::vector<CombAssign>& comb() const { return comb_; }
  const std::vector<FlipFlop>& flops() const { return flops_; }
  const std::vector<MemWrite>& mem_writes() const { return mem_writes_; }

  const Signal& signal(SignalId id) const { return signals_[id]; }
  const Memory& memory(MemoryId id) const { return memories_[id]; }
  const Expr& expr(ExprId id) const { return exprs_[id]; }

  SignalId clock() const { return clock_; }
  SignalId reset() const { return reset_; }

  // Name lookup (linear scan cached in a map; designs are built once).
  SignalId FindSignal(const std::string& name) const;
  MemoryId FindMemory(const std::string& name) const;

  DesignStats Stats() const;

  // Structural sanity: every wire/output driven at most once, every reg
  // driven by exactly one flip-flop, widths consistent, no dangling ids.
  Status Validate() const;

  // Mutable access for instrumentation passes (scan chain insertion).
  std::vector<FlipFlop>& mutable_flops() { return flops_; }
  std::vector<CombAssign>& mutable_comb() { return comb_; }
  std::vector<MemWrite>& mutable_mem_writes() { return mem_writes_; }

 private:
  unsigned WidthOf(ExprId e) const { return exprs_[e].width; }

  std::string name_;
  std::vector<Signal> signals_;
  std::vector<Memory> memories_;
  std::vector<Expr> exprs_;
  std::vector<CombAssign> comb_;
  std::vector<FlipFlop> flops_;
  std::vector<MemWrite> mem_writes_;
  SignalId clock_ = kInvalidId;
  SignalId reset_ = kInvalidId;
};

}  // namespace hardsnap::rtl
