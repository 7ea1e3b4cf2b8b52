#include "rtl/elaborate.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "rtl/parser.h"

namespace hardsnap::rtl {
namespace {

using ast::BinOp;
using ast::ExprKind;
using ast::StmtKind;
using ast::UnOp;

Status ErrAt(int line, const std::string& msg) {
  return ParseError("line " + std::to_string(line) + ": " + msg);
}

// Per-module-instance elaboration scope: local name -> flat design object.
struct Scope {
  std::string prefix;  // "" for top, "u_core." for children
  std::map<std::string, uint64_t> params;
  std::map<std::string, SignalId> signals;
  std::map<std::string, MemoryId> memories;
};

class Elaborator {
 public:
  Elaborator(const ast::SourceUnit& unit, Design* design)
      : unit_(unit), design_(design) {}

  Status Run(const ast::Module& top,
             const std::map<std::string, uint64_t>& overrides) {
    Scope scope;
    scope.prefix = "";
    return ElaborateModule(top, overrides, /*is_top=*/true, &scope,
                           /*port_conns=*/nullptr, /*parent=*/nullptr);
  }

 private:
  // Environment for statement lowering: target signal -> pending value.
  using Env = std::map<SignalId, ExprId>;

  const ast::Module* FindModule(const std::string& name) {
    for (const auto& m : unit_.modules)
      if (m.name == name) return &m;
    return nullptr;
  }

  // ---------------------------------------------------------------------
  // Constant expression evaluation over the AST (parameters, widths).
  Result<uint64_t> EvalConst(const ast::Expr& e, const Scope& scope) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return e.number_width > 0 ? TruncBits(e.value, e.number_width)
                                  : e.value;
      case ExprKind::kIdent: {
        auto it = scope.params.find(e.name);
        if (it != scope.params.end()) return it->second;
        return ErrAt(e.line, "'" + e.name + "' is not a constant parameter");
      }
      case ExprKind::kUnary: {
        auto a = EvalConst(*e.args[0], scope);
        if (!a.ok()) return a.status();
        switch (e.un_op) {
          case UnOp::kNot: return ~a.value();
          case UnOp::kNeg: return ~a.value() + 1;
          case UnOp::kLogicNot: return a.value() == 0 ? 1u : 0u;
          case UnOp::kPlus: return a.value();
          default: return ErrAt(e.line, "reduction op in constant expr");
        }
      }
      case ExprKind::kBinary: {
        auto a = EvalConst(*e.args[0], scope);
        if (!a.ok()) return a.status();
        auto b = EvalConst(*e.args[1], scope);
        if (!b.ok()) return b.status();
        uint64_t x = a.value(), y = b.value();
        switch (e.bin_op) {
          case BinOp::kAdd: return x + y;
          case BinOp::kSub: return x - y;
          case BinOp::kMul: return x * y;
          case BinOp::kDiv:
            if (y == 0) return ErrAt(e.line, "constant divide by zero");
            return x / y;
          case BinOp::kMod:
            if (y == 0) return ErrAt(e.line, "constant modulo by zero");
            return x % y;
          case BinOp::kPow: {
            uint64_t r = 1;
            for (uint64_t i = 0; i < y; ++i) r *= x;
            return r;
          }
          case BinOp::kAnd: return x & y;
          case BinOp::kOr: return x | y;
          case BinOp::kXor: return x ^ y;
          case BinOp::kShl: return y >= 64 ? 0 : x << y;
          case BinOp::kShr: return y >= 64 ? 0 : x >> y;
          case BinOp::kEq: return x == y ? 1u : 0u;
          case BinOp::kNe: return x != y ? 1u : 0u;
          case BinOp::kLt: return x < y ? 1u : 0u;
          case BinOp::kLe: return x <= y ? 1u : 0u;
          case BinOp::kGt: return x > y ? 1u : 0u;
          case BinOp::kGe: return x >= y ? 1u : 0u;
          default:
            return ErrAt(e.line, "operator not allowed in constant expr");
        }
      }
      case ExprKind::kTernary: {
        auto c = EvalConst(*e.args[0], scope);
        if (!c.ok()) return c.status();
        return EvalConst(c.value() ? *e.args[1] : *e.args[2], scope);
      }
      default:
        return ErrAt(e.line, "expression is not constant");
    }
  }

  Result<unsigned> EvalWidth(const ast::ExprPtr& msb, const ast::ExprPtr& lsb,
                             const Scope& scope, int line) {
    if (!msb) return 1u;
    auto hi = EvalConst(*msb, scope);
    if (!hi.ok()) return hi.status();
    auto lo = EvalConst(*lsb, scope);
    if (!lo.ok()) return lo.status();
    if (lo.value() != 0)
      return ErrAt(line, "ranges must be of the form [N:0]");
    if (hi.value() >= 64) return ErrAt(line, "signals wider than 64 bits");
    return static_cast<unsigned>(hi.value()) + 1;
  }

  // ---------------------------------------------------------------------
  // RHS expression lowering. `env` is non-null inside always@* blocks
  // (blocking-assignment reads see prior writes from the same block).
  struct Lowered {
    ExprId id = kInvalidId;
    bool is_signed = false;
  };

  Result<Lowered> LowerExpr(const ast::Expr& e, const Scope& scope,
                            const Env* env) {
    switch (e.kind) {
      case ExprKind::kNumber: {
        unsigned w = e.number_width > 0 ? static_cast<unsigned>(e.number_width)
                                        : 32;
        return Lowered{design_->Const(e.value, w), false};
      }
      case ExprKind::kIdent: {
        // parameter?
        auto pit = scope.params.find(e.name);
        if (pit != scope.params.end())
          return Lowered{design_->Const(pit->second, 32), false};
        auto sit = scope.signals.find(e.name);
        if (sit == scope.signals.end())
          return ErrAt(e.line, "unknown identifier '" + e.name + "'");
        SignalId s = sit->second;
        if (env) {
          auto eit = env->find(s);
          if (eit != env->end()) return Lowered{eit->second, false};
        }
        return Lowered{design_->Sig(s), false};
      }
      case ExprKind::kIndex: {
        // memory word read or signal bit-select
        auto mit = scope.memories.find(e.name);
        if (mit != scope.memories.end()) {
          auto addr = LowerExpr(*e.args[0], scope, env);
          if (!addr.ok()) return addr.status();
          return Lowered{design_->MemRead(mit->second, addr.value().id), false};
        }
        auto base = LowerIdent(e.name, scope, env, e.line);
        if (!base.ok()) return base.status();
        // constant index -> slice; dynamic -> shift+slice
        auto cidx = EvalConst(*e.args[0], scope);
        if (cidx.ok()) {
          unsigned w = design_->expr(base.value()).width;
          if (cidx.value() >= w)
            return ErrAt(e.line, "bit index out of range");
          unsigned i = static_cast<unsigned>(cidx.value());
          return Lowered{design_->Slice(base.value(), i, i), false};
        }
        auto idx = LowerExpr(*e.args[0], scope, env);
        if (!idx.ok()) return idx.status();
        ExprId shifted =
            design_->Binary(Op::kShrL, base.value(), idx.value().id);
        return Lowered{design_->Slice(shifted, 0, 0), false};
      }
      case ExprKind::kRange: {
        auto base = LowerIdent(e.name, scope, env, e.line);
        if (!base.ok()) return base.status();
        auto hi = EvalConst(*e.args[0], scope);
        if (!hi.ok()) return hi.status();
        auto lo = EvalConst(*e.args[1], scope);
        if (!lo.ok()) return lo.status();
        unsigned w = design_->expr(base.value()).width;
        if (hi.value() < lo.value() || hi.value() >= w)
          return ErrAt(e.line, "part-select out of range");
        return Lowered{design_->Slice(base.value(),
                                      static_cast<unsigned>(hi.value()),
                                      static_cast<unsigned>(lo.value())),
                       false};
      }
      case ExprKind::kUnary: {
        auto a = LowerExpr(*e.args[0], scope, env);
        if (!a.ok()) return a.status();
        Op op = Op::kAdd;
        switch (e.un_op) {
          case UnOp::kNot: op = Op::kNot; break;
          case UnOp::kNeg: op = Op::kNeg; break;
          case UnOp::kRedAnd: op = Op::kRedAnd; break;
          case UnOp::kRedOr: op = Op::kRedOr; break;
          case UnOp::kRedXor: op = Op::kRedXor; break;
          case UnOp::kLogicNot: op = Op::kLogicNot; break;
          case UnOp::kPlus: return a;
        }
        return Lowered{design_->Unary(op, a.value().id), a.value().is_signed};
      }
      case ExprKind::kBinary: {
        auto a = LowerExpr(*e.args[0], scope, env);
        if (!a.ok()) return a.status();
        auto b = LowerExpr(*e.args[1], scope, env);
        if (!b.ok()) return b.status();
        const bool sgn = a.value().is_signed || b.value().is_signed;
        Op op = Op::kAdd;
        switch (e.bin_op) {
          case BinOp::kAdd: op = Op::kAdd; break;
          case BinOp::kSub: op = Op::kSub; break;
          case BinOp::kMul: op = Op::kMul; break;
          case BinOp::kDiv: op = Op::kDiv; break;
          case BinOp::kMod: op = Op::kMod; break;
          case BinOp::kPow:
            return ErrAt(e.line, "'**' only allowed in constant expressions");
          case BinOp::kAnd: op = Op::kAnd; break;
          case BinOp::kOr: op = Op::kOr; break;
          case BinOp::kXor: op = Op::kXor; break;
          case BinOp::kEq: op = Op::kEq; break;
          case BinOp::kNe: op = Op::kNe; break;
          case BinOp::kLt: op = sgn ? Op::kLtS : Op::kLtU; break;
          case BinOp::kLe: op = sgn ? Op::kLeS : Op::kLeU; break;
          case BinOp::kGt: op = sgn ? Op::kGtS : Op::kGtU; break;
          case BinOp::kGe: op = sgn ? Op::kGeS : Op::kGeU; break;
          case BinOp::kShl: op = Op::kShl; break;
          case BinOp::kShr: op = Op::kShrL; break;
          case BinOp::kShrA: op = Op::kShrA; break;
          case BinOp::kLogicAnd: op = Op::kLogicAnd; break;
          case BinOp::kLogicOr: op = Op::kLogicOr; break;
        }
        return Lowered{design_->Binary(op, a.value().id, b.value().id), sgn};
      }
      case ExprKind::kTernary: {
        auto c = LowerExpr(*e.args[0], scope, env);
        if (!c.ok()) return c.status();
        auto t = LowerExpr(*e.args[1], scope, env);
        if (!t.ok()) return t.status();
        auto f = LowerExpr(*e.args[2], scope, env);
        if (!f.ok()) return f.status();
        ExprId cond1 = ToBool(c.value().id);
        return Lowered{design_->Mux(cond1, t.value().id, f.value().id), false};
      }
      case ExprKind::kConcat: {
        std::vector<ExprId> parts;
        for (const auto& p : e.args) {
          auto pe = LowerExpr(*p, scope, env);
          if (!pe.ok()) return pe.status();
          parts.push_back(pe.value().id);
        }
        return Lowered{design_->Concat(std::move(parts)), false};
      }
      case ExprKind::kReplicate: {
        auto count = EvalConst(*e.args[0], scope);
        if (!count.ok()) return count.status();
        if (count.value() == 0 || count.value() > 64)
          return ErrAt(e.line, "bad replication count");
        auto body = LowerExpr(*e.args[1], scope, env);
        if (!body.ok()) return body.status();
        std::vector<ExprId> parts(static_cast<size_t>(count.value()),
                                  body.value().id);
        return Lowered{design_->Concat(std::move(parts)), false};
      }
      case ExprKind::kSigned: {
        auto a = LowerExpr(*e.args[0], scope, env);
        if (!a.ok()) return a.status();
        return Lowered{a.value().id, true};
      }
    }
    return ErrAt(e.line, "unhandled expression kind");
  }

  Result<ExprId> LowerIdent(const std::string& name, const Scope& scope,
                            const Env* env, int line) {
    auto sit = scope.signals.find(name);
    if (sit == scope.signals.end())
      return ErrAt(line, "unknown identifier '" + name + "'");
    if (env) {
      auto eit = env->find(sit->second);
      if (eit != env->end()) return eit->second;
    }
    return design_->Sig(sit->second);
  }

  // Reduce an expression to a 1-bit boolean (|x) unless already 1 bit.
  ExprId ToBool(ExprId e) {
    if (design_->expr(e).width == 1) return e;
    return design_->Unary(Op::kRedOr, e);
  }

  // Adapt `value` to exactly `width` bits (truncate; zero-extension is
  // implicit in the value representation, but comb assigns require the
  // expression width to not exceed the target's).
  ExprId FitWidth(ExprId value, unsigned width) {
    unsigned w = design_->expr(value).width;
    if (w > width) return design_->Slice(value, width - 1, 0);
    if (w < width) return design_->Extend(Op::kZext, value, width);
    return value;
  }

  // ---------------------------------------------------------------------
  // Statement lowering.
  struct WalkCtx {
    bool sequential = false;  // posedge block (NBA) vs @* (blocking)
    Env env;
    std::vector<MemWrite> writes;
    ExprId guard = kInvalidId;  // path condition for memory writes
  };

  // A branch arm that walks `stmt` (nothing when null) into the arm's own
  // context.
  auto StmtArm(const ast::Stmt* stmt, const Scope& scope) {
    return [this, stmt, &scope](WalkCtx* ctx) {
      return stmt ? WalkStmt(*stmt, scope, ctx) : Status::Ok();
    };
  }

  Status WalkStmt(const ast::Stmt& s, const Scope& scope, WalkCtx* ctx) {
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& sub : s.body)
          HS_RETURN_IF_ERROR(WalkStmt(*sub, scope, ctx));
        return Status::Ok();
      case StmtKind::kAssign:
        return WalkAssign(s, scope, ctx);
      case StmtKind::kIf: {
        auto c = LowerExpr(*s.cond, scope, ctx->sequential ? nullptr : &ctx->env);
        if (!c.ok()) return c.status();
        ExprId cond = ToBool(c.value().id);
        return WalkBranch(cond, StmtArm(s.then_stmt.get(), scope),
                          StmtArm(s.else_stmt.get(), scope), ctx, s.line);
      }
      case StmtKind::kCase:
        return WalkCase(s, 0, scope, ctx);
    }
    return Internal("unhandled statement kind");
  }

  // Lower if(cond) then else: walk both arms on copies of the env and merge
  // with muxes; memory writes get the path condition folded into enables.
  template <typename ThenArm, typename ElseArm>
  Status WalkBranch(ExprId cond, const ThenArm& then_arm,
                    const ElseArm& else_arm, WalkCtx* ctx, int line) {
    WalkCtx then_ctx{ctx->sequential, ctx->env, {},
                     AndGuard(ctx->guard, cond)};
    HS_RETURN_IF_ERROR(then_arm(&then_ctx));
    WalkCtx else_ctx{ctx->sequential, ctx->env, {},
                     AndGuard(ctx->guard, design_->Unary(Op::kLogicNot, cond))};
    HS_RETURN_IF_ERROR(else_arm(&else_ctx));

    // Merge register/wire environments.
    std::set<SignalId> keys;
    for (const auto& [k, v] : then_ctx.env) keys.insert(k);
    for (const auto& [k, v] : else_ctx.env) keys.insert(k);
    for (SignalId k : keys) {
      auto t = then_ctx.env.find(k);
      auto f = else_ctx.env.find(k);
      ExprId tv, fv;
      auto base = ctx->env.find(k);
      if (t != then_ctx.env.end()) tv = t->second;
      else if (base != ctx->env.end()) tv = base->second;
      else if (ctx->sequential) tv = design_->Sig(k);
      else
        return ErrAt(line, "latch inferred: '" + design_->signal(k).name +
                               "' not assigned on all paths of always@*");
      if (f != else_ctx.env.end()) fv = f->second;
      else if (base != ctx->env.end()) fv = base->second;
      else if (ctx->sequential) fv = design_->Sig(k);
      else
        return ErrAt(line, "latch inferred: '" + design_->signal(k).name +
                               "' not assigned on all paths of always@*");
      ctx->env[k] = tv == fv ? tv : design_->Mux(cond, tv, fv);
    }
    // Memory writes from both arms carry their own guards already.
    for (auto& w : then_ctx.writes) ctx->writes.push_back(w);
    for (auto& w : else_ctx.writes) ctx->writes.push_back(w);
    return Status::Ok();
  }

  // case(subject) from item `idx` on, lowered as an if/else-if chain
  // (priority semantics): each labeled item is a branch whose else arm is
  // the rest of the chain; the default item, wherever it appears, is the
  // final else.
  Status WalkCase(const ast::Stmt& s, size_t idx, const Scope& scope,
                  WalkCtx* ctx) {
    while (idx < s.items.size() && s.items[idx].labels.empty()) ++idx;
    if (idx >= s.items.size()) {
      const ast::Stmt* default_body = nullptr;
      for (const auto& item : s.items)
        if (item.labels.empty()) default_body = item.body.get();
      return StmtArm(default_body, scope)(ctx);
    }
    const ast::CaseItem& item = s.items[idx];
    const Env* env_for_expr = ctx->sequential ? nullptr : &ctx->env;
    auto subj = LowerExpr(*s.subject, scope, env_for_expr);
    if (!subj.ok()) return subj.status();
    ExprId match = kInvalidId;
    for (const auto& label : item.labels) {
      auto l = LowerExpr(*label, scope, env_for_expr);
      if (!l.ok()) return l.status();
      ExprId eq = design_->Binary(Op::kEq, subj.value().id, l.value().id);
      match = match == kInvalidId ? eq : design_->Binary(Op::kOr, match, eq);
    }
    return WalkBranch(
        match, StmtArm(item.body.get(), scope),
        [&](WalkCtx* rest) { return WalkCase(s, idx + 1, scope, rest); }, ctx,
        s.line);
  }

  ExprId AndGuard(ExprId guard, ExprId cond) {
    if (guard == kInvalidId) return cond;
    return design_->Binary(Op::kLogicAnd, guard, cond);
  }

  Status WalkAssign(const ast::Stmt& s, const Scope& scope, WalkCtx* ctx) {
    if (ctx->sequential && !s.non_blocking)
      return ErrAt(s.line,
                   "blocking '=' in always@(posedge): use '<=' "
                   "(this subset enforces NBA in sequential blocks)");
    if (!ctx->sequential && s.non_blocking)
      return ErrAt(s.line, "non-blocking '<=' in always@*: use '='");

    const Env* env_for_expr = ctx->sequential ? nullptr : &ctx->env;

    // Memory word write: mem[addr] <= data
    auto mit = scope.memories.find(s.lhs.name);
    if (mit != scope.memories.end()) {
      if (!ctx->sequential)
        return ErrAt(s.line, "memory writes only allowed in posedge blocks");
      if (!s.lhs.index)
        return ErrAt(s.line, "memory assignment requires an index");
      auto addr = LowerExpr(*s.lhs.index, scope, env_for_expr);
      if (!addr.ok()) return addr.status();
      auto data = LowerExpr(*s.rhs, scope, env_for_expr);
      if (!data.ok()) return data.status();
      MemWrite mw;
      mw.memory = mit->second;
      mw.addr = addr.value().id;
      mw.data = FitWidth(data.value().id, design_->memory(mit->second).width);
      mw.enable = ctx->guard == kInvalidId ? design_->Const(1, 1) : ctx->guard;
      ctx->writes.push_back(mw);
      return Status::Ok();
    }

    auto sit = scope.signals.find(s.lhs.name);
    if (sit == scope.signals.end())
      return ErrAt(s.line, "unknown assignment target '" + s.lhs.name + "'");
    SignalId target = sit->second;
    unsigned tw = design_->signal(target).width;

    auto rhs = LowerExpr(*s.rhs, scope, env_for_expr);
    if (!rhs.ok()) return rhs.status();
    ExprId value = rhs.value().id;

    // Current value of the target for read-modify-write (bit/part select).
    auto current = [&]() -> ExprId {
      auto eit = ctx->env.find(target);
      if (eit != ctx->env.end()) return eit->second;
      return design_->Sig(target);
    };

    if (s.lhs.range_msb) {
      auto hi = EvalConst(*s.lhs.range_msb, scope);
      if (!hi.ok()) return hi.status();
      auto lo = EvalConst(*s.lhs.range_lsb, scope);
      if (!lo.ok()) return lo.status();
      if (hi.value() < lo.value() || hi.value() >= tw)
        return ErrAt(s.line, "part-select target out of range");
      unsigned h = static_cast<unsigned>(hi.value());
      unsigned l = static_cast<unsigned>(lo.value());
      ExprId cur = FitWidth(current(), tw);
      std::vector<ExprId> parts;
      if (h + 1 < tw) parts.push_back(design_->Slice(cur, tw - 1, h + 1));
      parts.push_back(FitWidth(value, h - l + 1));
      if (l > 0) parts.push_back(design_->Slice(cur, l - 1, 0));
      ctx->env[target] = design_->Concat(std::move(parts));
      return Status::Ok();
    }
    if (s.lhs.index) {
      // Single-bit write, possibly with a dynamic index:
      //   t = (t & ~(1 << idx)) | ((value&1) << idx)
      auto idx = LowerExpr(*s.lhs.index, scope, env_for_expr);
      if (!idx.ok()) return idx.status();
      ExprId cur = FitWidth(current(), tw);
      ExprId one = design_->Const(1, tw);
      ExprId mask = design_->Binary(Op::kShl, one, idx.value().id);
      ExprId cleared = design_->Binary(Op::kAnd, cur,
                                       design_->Unary(Op::kNot, mask));
      ExprId bit = FitWidth(design_->Slice(FitWidth(value, tw), 0, 0), tw);
      ExprId placed = design_->Binary(Op::kShl, bit, idx.value().id);
      ctx->env[target] = design_->Binary(Op::kOr, cleared, placed);
      return Status::Ok();
    }
    ctx->env[target] = FitWidth(value, tw);
    return Status::Ok();
  }

  // ---------------------------------------------------------------------
  // Module elaboration.
  Status ElaborateModule(const ast::Module& mod,
                         const std::map<std::string, uint64_t>& param_overrides,
                         bool is_top, Scope* scope,
                         const std::vector<ast::PortConn>* port_conns,
                         const Scope* parent) {
    // 1. Parameters.
    for (const auto& p : mod.params) {
      auto it = param_overrides.find(p.name);
      if (it != param_overrides.end()) {
        scope->params[p.name] = it->second;
      } else {
        auto v = EvalConst(*p.value, *scope);
        if (!v.ok()) return v.status();
        scope->params[p.name] = v.value();
      }
    }

    // 2. Which declared regs are sequential state? (assigned in posedge)
    std::set<std::string> seq_targets, comb_targets;
    for (const auto& ab : mod.always) {
      std::set<std::string>* sink = ab.sens == ast::SensKind::kPosedgeClock
                                        ? &seq_targets
                                        : &comb_targets;
      CollectAssignTargets(*ab.body, sink);
    }

    // 3. Declare signals and memories.
    for (const auto& d : mod.nets) {
      if (d.mem_msb) {
        auto hi = EvalConst(*d.mem_msb, *scope);
        if (!hi.ok()) return hi.status();
        auto lo = EvalConst(*d.mem_lsb, *scope);
        if (!lo.ok()) return lo.status();
        uint64_t a = hi.value(), b = lo.value();
        if (a > b) std::swap(a, b);
        if (a != 0)
          return ErrAt(d.line, "memory ranges must start at 0");
        auto width = EvalWidth(d.msb, d.lsb, *scope, d.line);
        if (!width.ok()) return width.status();
        MemoryId m = design_->AddMemory(scope->prefix + d.name, width.value(),
                                        static_cast<unsigned>(b) + 1);
        scope->memories[d.name] = m;
        continue;
      }
      auto width = EvalWidth(d.msb, d.lsb, *scope, d.line);
      if (!width.ok()) return width.status();
      SignalKind kind;
      if (is_top && d.is_port) {
        kind = d.dir == ast::PortDir::kInput ? SignalKind::kInput
                                             : SignalKind::kOutput;
        if (d.dir == ast::PortDir::kOutput && seq_targets.count(d.name))
          kind = SignalKind::kOutput;  // output reg driven by a flop
      } else if (seq_targets.count(d.name)) {
        kind = SignalKind::kReg;
      } else {
        kind = SignalKind::kWire;  // wires + @*-assigned "reg" + child ports
      }
      SignalId s = design_->AddSignal(scope->prefix + d.name, width.value(), kind);
      scope->signals[d.name] = s;
      if (d.init) {
        auto v = LowerExpr(*d.init, *scope, nullptr);
        if (!v.ok()) return v.status();
        design_->AddComb(s, FitWidth(v.value().id, width.value()));
      }
    }

    // 4. Clock / reset conventions at top level.
    if (is_top) {
      SignalId clk = design_->FindSignal("clk");
      if (clk == kInvalidId)
        return ParseError("top module must have an input named 'clk'");
      design_->SetClock(clk);
      SignalId rst = design_->FindSignal("rst");
      if (rst == kInvalidId) rst = design_->FindSignal("reset");
      if (rst != kInvalidId) design_->SetReset(rst);
    }

    // 5. Port connections from the parent (child instances only).
    if (port_conns) {
      std::set<std::string> connected;
      for (const auto& pc : *port_conns) {
        const ast::NetDecl* port = nullptr;
        for (const auto& d : mod.nets)
          if (d.is_port && d.name == pc.port) { port = &d; break; }
        if (!port)
          return ParseError("no port '" + pc.port + "' on module " + mod.name);
        connected.insert(pc.port);
        if (!pc.expr) continue;  // explicitly unconnected
        SignalId child_sig = scope->signals.at(pc.port);
        unsigned cw = design_->signal(child_sig).width;
        if (port->dir == ast::PortDir::kInput) {
          auto v = LowerExpr(*pc.expr, *parent, nullptr);
          if (!v.ok()) return v.status();
          design_->AddComb(child_sig, FitWidth(v.value().id, cw));
        } else {
          // output: connection must be a plain identifier in the parent
          if (pc.expr->kind != ExprKind::kIdent)
            return ErrAt(pc.expr->line,
                         "output port connections must be plain wires");
          auto sit = parent->signals.find(pc.expr->name);
          if (sit == parent->signals.end())
            return ErrAt(pc.expr->line,
                         "unknown wire '" + pc.expr->name + "'");
          unsigned pw = design_->signal(sit->second).width;
          design_->AddComb(sit->second,
                           FitWidth(design_->Sig(child_sig), pw));
        }
      }
      // Unconnected inputs are an error (they would float).
      for (const auto& d : mod.nets) {
        if (d.is_port && d.dir == ast::PortDir::kInput &&
            !connected.count(d.name))
          return ParseError("input port '" + d.name + "' of instance " +
                            scope->prefix + " is unconnected");
      }
    }

    // 6. Continuous assigns.
    for (const auto& ca : mod.assigns) {
      if (ca.lhs.index || ca.lhs.range_msb)
        return ErrAt(ca.line, "assign to bit/part select is unsupported");
      auto sit = scope->signals.find(ca.lhs.name);
      if (sit == scope->signals.end())
        return ErrAt(ca.line, "unknown assign target '" + ca.lhs.name + "'");
      auto v = LowerExpr(*ca.rhs, *scope, nullptr);
      if (!v.ok()) return v.status();
      design_->AddComb(sit->second,
                       FitWidth(v.value().id, design_->signal(sit->second).width));
    }

    // 7. Always blocks.
    for (const auto& ab : mod.always) {
      WalkCtx ctx;
      ctx.sequential = ab.sens == ast::SensKind::kPosedgeClock;
      ctx.guard = kInvalidId;
      HS_RETURN_IF_ERROR(WalkStmt(*ab.body, *scope, &ctx));
      if (ctx.sequential) {
        for (const auto& [target, next] : ctx.env) {
          FlipFlop ff;
          ff.q = target;
          ff.next = FitWidth(next, design_->signal(target).width);
          design_->AddFlop(ff);
        }
        for (const auto& w : ctx.writes) design_->AddMemWrite(w);
      } else {
        if (!ctx.writes.empty())
          return ErrAt(ab.line, "memory writes not allowed in always@*");
        for (const auto& [target, value] : ctx.env) {
          design_->AddComb(target,
                           FitWidth(value, design_->signal(target).width));
        }
      }
    }

    // 8. Instances.
    for (const auto& inst : mod.instances) {
      const ast::Module* child = FindModule(inst.module_name);
      if (!child)
        return ErrAt(inst.line, "unknown module '" + inst.module_name + "'");
      std::map<std::string, uint64_t> child_overrides;
      for (const auto& po : inst.param_overrides) {
        auto v = EvalConst(*po.value, *scope);
        if (!v.ok()) return v.status();
        child_overrides[po.name] = v.value();
      }
      Scope child_scope;
      child_scope.prefix = scope->prefix + inst.instance_name + ".";
      HS_RETURN_IF_ERROR(ElaborateModule(*child, child_overrides,
                                         /*is_top=*/false, &child_scope,
                                         &inst.conns, scope));
    }
    return Status::Ok();
  }

  static void CollectAssignTargets(const ast::Stmt& s,
                                   std::set<std::string>* out) {
    switch (s.kind) {
      case StmtKind::kAssign:
        out->insert(s.lhs.name);
        return;
      case StmtKind::kBlock:
        for (const auto& sub : s.body) CollectAssignTargets(*sub, out);
        return;
      case StmtKind::kIf:
        if (s.then_stmt) CollectAssignTargets(*s.then_stmt, out);
        if (s.else_stmt) CollectAssignTargets(*s.else_stmt, out);
        return;
      case StmtKind::kCase:
        for (const auto& item : s.items) CollectAssignTargets(*item.body, out);
        return;
    }
  }

  const ast::SourceUnit& unit_;
  Design* design_;
};

}  // namespace

Result<Design> Elaborate(const ast::SourceUnit& unit,
                         const ElaborateOptions& options) {
  const ast::Module* top = nullptr;
  if (options.top.empty()) {
    top = &unit.modules.back();
  } else {
    for (const auto& m : unit.modules)
      if (m.name == options.top) top = &m;
    if (!top) return NotFound("top module '" + options.top + "' not found");
  }
  Design design(top->name);
  Elaborator el(unit, &design);
  HS_RETURN_IF_ERROR(el.Run(*top, options.param_overrides));
  HS_RETURN_IF_ERROR(design.Validate());
  return design;
}

Result<Design> CompileVerilog(const std::string& source, const std::string& top,
                              const std::map<std::string, uint64_t>&
                                  param_overrides) {
  auto unit = ParseVerilog(source);
  if (!unit.ok()) return unit.status();
  ElaborateOptions opts;
  opts.top = top;
  opts.param_overrides = param_overrides;
  return Elaborate(unit.value(), opts);
}

}  // namespace hardsnap::rtl
