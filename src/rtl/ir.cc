#include "rtl/ir.h"

#include <algorithm>

#include "common/bitops.h"

namespace hardsnap::rtl {

const char* OpName(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kSignal: return "signal";
    case Op::kMemRead: return "memread";
    case Op::kNot: return "not";
    case Op::kNeg: return "neg";
    case Op::kRedAnd: return "redand";
    case Op::kRedOr: return "redor";
    case Op::kRedXor: return "redxor";
    case Op::kLogicNot: return "lnot";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLtU: return "ltu";
    case Op::kLeU: return "leu";
    case Op::kGtU: return "gtu";
    case Op::kGeU: return "geu";
    case Op::kLtS: return "lts";
    case Op::kLeS: return "les";
    case Op::kGtS: return "gts";
    case Op::kGeS: return "ges";
    case Op::kShl: return "shl";
    case Op::kShrL: return "shrl";
    case Op::kShrA: return "shra";
    case Op::kLogicAnd: return "land";
    case Op::kLogicOr: return "lor";
    case Op::kMux: return "mux";
    case Op::kConcat: return "concat";
    case Op::kSlice: return "slice";
    case Op::kZext: return "zext";
    case Op::kSext: return "sext";
  }
  return "?";
}

bool IsUnary(Op op) {
  switch (op) {
    case Op::kNot:
    case Op::kNeg:
    case Op::kRedAnd:
    case Op::kRedOr:
    case Op::kRedXor:
    case Op::kLogicNot:
      return true;
    default:
      return false;
  }
}

bool IsBinary(Op op) {
  switch (op) {
    case Op::kAnd: case Op::kOr: case Op::kXor:
    case Op::kAdd: case Op::kSub: case Op::kMul:
    case Op::kDiv: case Op::kMod:
    case Op::kEq: case Op::kNe:
    case Op::kLtU: case Op::kLeU: case Op::kGtU: case Op::kGeU:
    case Op::kLtS: case Op::kLeS: case Op::kGtS: case Op::kGeS:
    case Op::kShl: case Op::kShrL: case Op::kShrA:
    case Op::kLogicAnd: case Op::kLogicOr:
      return true;
    default:
      return false;
  }
}

SignalId Design::AddSignal(std::string name, unsigned width, SignalKind kind) {
  HS_CHECK_MSG(width >= 1 && width <= 64, "signal width must be 1..64");
  signals_.push_back(Signal{std::move(name), width, kind});
  return static_cast<SignalId>(signals_.size() - 1);
}

MemoryId Design::AddMemory(std::string name, unsigned width, unsigned depth) {
  HS_CHECK_MSG(width >= 1 && width <= 64, "memory width must be 1..64");
  HS_CHECK_MSG(depth >= 1, "memory depth must be >= 1");
  memories_.push_back(Memory{std::move(name), width, depth});
  return static_cast<MemoryId>(memories_.size() - 1);
}

ExprId Design::Const(uint64_t value, unsigned width) {
  HS_CHECK(width >= 1 && width <= 64);
  Expr e;
  e.op = Op::kConst;
  e.width = width;
  e.imm = TruncBits(value, width);
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::Sig(SignalId s) {
  HS_CHECK(s >= 0 && s < static_cast<SignalId>(signals_.size()));
  Expr e;
  e.op = Op::kSignal;
  e.width = signals_[s].width;
  e.signal = s;
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::MemRead(MemoryId m, ExprId addr) {
  HS_CHECK(m >= 0 && m < static_cast<MemoryId>(memories_.size()));
  Expr e;
  e.op = Op::kMemRead;
  e.width = memories_[m].width;
  e.memory = m;
  e.args = {addr};
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::Unary(Op op, ExprId a) {
  HS_CHECK_MSG(IsUnary(op), "Unary() with non-unary op");
  Expr e;
  e.op = op;
  switch (op) {
    case Op::kRedAnd:
    case Op::kRedOr:
    case Op::kRedXor:
    case Op::kLogicNot:
      e.width = 1;
      break;
    default:
      e.width = exprs_[a].width;
  }
  e.args = {a};
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::Binary(Op op, ExprId a, ExprId b) {
  HS_CHECK_MSG(IsBinary(op), "Binary() with non-binary op");
  Expr e;
  e.op = op;
  switch (op) {
    case Op::kEq: case Op::kNe:
    case Op::kLtU: case Op::kLeU: case Op::kGtU: case Op::kGeU:
    case Op::kLtS: case Op::kLeS: case Op::kGtS: case Op::kGeS:
    case Op::kLogicAnd: case Op::kLogicOr:
      e.width = 1;
      break;
    case Op::kShl: case Op::kShrL: case Op::kShrA:
      e.width = exprs_[a].width;  // shift amount does not widen the result
      break;
    default:
      e.width = std::max(exprs_[a].width, exprs_[b].width);
  }
  e.args = {a, b};
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::Mux(ExprId sel, ExprId then_e, ExprId else_e) {
  Expr e;
  e.op = Op::kMux;
  e.width = std::max(exprs_[then_e].width, exprs_[else_e].width);
  e.args = {sel, then_e, else_e};
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::Concat(std::vector<ExprId> parts) {
  HS_CHECK_MSG(!parts.empty(), "empty concat");
  unsigned total = 0;
  for (ExprId p : parts) total += exprs_[p].width;
  HS_CHECK_MSG(total <= 64, "concat wider than 64 bits");
  Expr e;
  e.op = Op::kConcat;
  e.width = total;
  e.args = std::move(parts);
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::Slice(ExprId a, unsigned hi, unsigned lo) {
  HS_CHECK_MSG(hi >= lo && hi < exprs_[a].width, "bad slice bounds");
  Expr e;
  e.op = Op::kSlice;
  e.width = hi - lo + 1;
  e.hi = hi;
  e.lo = lo;
  e.args = {a};
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

ExprId Design::Extend(Op op, ExprId a, unsigned width) {
  HS_CHECK(op == Op::kZext || op == Op::kSext);
  HS_CHECK_MSG(width >= exprs_[a].width && width <= 64, "bad extend width");
  if (width == exprs_[a].width) return a;
  Expr e;
  e.op = op;
  e.width = width;
  e.args = {a};
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

void Design::AddComb(SignalId target, ExprId value) {
  comb_.push_back(CombAssign{target, value});
}

void Design::AddFlop(FlipFlop ff) { flops_.push_back(ff); }

void Design::AddMemWrite(MemWrite mw) { mem_writes_.push_back(mw); }

SignalId Design::FindSignal(const std::string& name) const {
  for (size_t i = 0; i < signals_.size(); ++i) {
    if (signals_[i].name == name) return static_cast<SignalId>(i);
  }
  return kInvalidId;
}

MemoryId Design::FindMemory(const std::string& name) const {
  for (size_t i = 0; i < memories_.size(); ++i) {
    if (memories_[i].name == name) return static_cast<MemoryId>(i);
  }
  return kInvalidId;
}

DesignStats Design::Stats() const {
  DesignStats s;
  s.num_signals = static_cast<unsigned>(signals_.size());
  s.num_flops = static_cast<unsigned>(flops_.size());
  for (const auto& ff : flops_) s.num_flop_bits += signals_[ff.q].width;
  s.num_memories = static_cast<unsigned>(memories_.size());
  for (const auto& m : memories_) s.num_memory_bits += m.width * m.depth;
  s.num_comb_assigns = static_cast<unsigned>(comb_.size());
  s.num_expr_nodes = static_cast<unsigned>(exprs_.size());
  return s;
}

Status Design::Validate() const {
  std::vector<int> drivers(signals_.size(), 0);
  auto check_expr = [&](ExprId id) -> Status {
    if (id < 0 || id >= static_cast<ExprId>(exprs_.size()))
      return Internal("dangling expr id");
    return Status::Ok();
  };
  for (const auto& ca : comb_) {
    if (ca.target < 0 || ca.target >= static_cast<SignalId>(signals_.size()))
      return Internal("comb assign to dangling signal");
    HS_RETURN_IF_ERROR(check_expr(ca.value));
    const Signal& t = signals_[ca.target];
    if (t.kind == SignalKind::kInput)
      return Internal("comb assign drives input '" + t.name + "'");
    if (t.kind == SignalKind::kReg)
      return Internal("comb assign drives reg '" + t.name + "'");
    if (exprs_[ca.value].width > t.width)
      return Internal("comb assign wider than target '" + t.name + "'");
    drivers[ca.target]++;
  }
  for (const auto& ff : flops_) {
    if (ff.q < 0 || ff.q >= static_cast<SignalId>(signals_.size()))
      return Internal("flop drives dangling signal");
    HS_RETURN_IF_ERROR(check_expr(ff.next));
    const Signal& t = signals_[ff.q];
    if (t.kind != SignalKind::kReg && t.kind != SignalKind::kOutput)
      return Internal("flop drives non-reg '" + t.name + "'");
    drivers[ff.q]++;
  }
  for (size_t i = 0; i < signals_.size(); ++i) {
    if (drivers[i] > 1)
      return Internal("signal '" + signals_[i].name + "' has multiple drivers");
  }
  for (const auto& mw : mem_writes_) {
    if (mw.memory < 0 || mw.memory >= static_cast<MemoryId>(memories_.size()))
      return Internal("mem write to dangling memory");
    HS_RETURN_IF_ERROR(check_expr(mw.enable));
    HS_RETURN_IF_ERROR(check_expr(mw.addr));
    HS_RETURN_IF_ERROR(check_expr(mw.data));
  }
  for (const auto& e : exprs_) {
    for (ExprId a : e.args) HS_RETURN_IF_ERROR(check_expr(a));
    if (e.op == Op::kSignal &&
        (e.signal < 0 || e.signal >= static_cast<SignalId>(signals_.size())))
      return Internal("expr references dangling signal");
    if (e.op == Op::kMemRead &&
        (e.memory < 0 || e.memory >= static_cast<MemoryId>(memories_.size())))
      return Internal("expr references dangling memory");
  }
  return Status::Ok();
}

}  // namespace hardsnap::rtl
