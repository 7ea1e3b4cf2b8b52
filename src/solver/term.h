// Bitvector term DAG (the solver-facing expression language, KLEE's
// "Expr" analogue). Terms are hash-consed and constant-folded at
// construction, so concrete-only firmware execution never reaches the SAT
// core: a term over constants IS a constant.
//
// Widths are 1..64 bits. Booleans are 1-bit vectors. Division follows
// RISC-V semantics (x/0 = all-ones, x%0 = x) to match the CPU model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace hardsnap::solver {

using TermId = int32_t;
inline constexpr TermId kNoTerm = -1;

enum class TOp : uint8_t {
  kConst, kVar,
  kNot, kNeg,
  kAnd, kOr, kXor,
  kAdd, kSub, kMul, kUdiv, kUrem,
  kEq, kUlt, kUle, kSlt, kSle,
  kShl, kLshr, kAshr,
  kIte,            // args: cond(1), then, else
  kConcat,         // args high..low
  kExtract,        // arg0[hi:lo]
  kZext, kSext,
};

const char* TOpName(TOp op);

struct Term {
  TOp op = TOp::kConst;
  unsigned width = 1;
  uint64_t value = 0;       // kConst
  std::string name;         // kVar
  unsigned hi = 0, lo = 0;  // kExtract
  std::vector<TermId> args;
};

// Hash-consing term factory. One context per analysis; TermIds are stable
// for its lifetime, so states can share sub-DAGs freely.
class BvContext {
 public:
  BvContext();

  TermId Const(uint64_t value, unsigned width);
  TermId True() { return true_; }
  TermId False() { return false_; }
  // Fresh named variable (not hash-consed: two Vars are distinct even with
  // equal names; name is diagnostic).
  TermId Var(std::string name, unsigned width);

  TermId Not(TermId a);
  TermId Neg(TermId a);
  TermId And(TermId a, TermId b);
  TermId Or(TermId a, TermId b);
  TermId Xor(TermId a, TermId b);
  TermId Add(TermId a, TermId b);
  TermId Sub(TermId a, TermId b);
  TermId Mul(TermId a, TermId b);
  TermId Udiv(TermId a, TermId b);
  TermId Urem(TermId a, TermId b);
  TermId Eq(TermId a, TermId b);   // 1-bit result
  TermId Ne(TermId a, TermId b);
  TermId Ult(TermId a, TermId b);
  TermId Ule(TermId a, TermId b);
  TermId Ugt(TermId a, TermId b) { return Ult(b, a); }
  TermId Uge(TermId a, TermId b) { return Ule(b, a); }
  TermId Slt(TermId a, TermId b);
  TermId Sle(TermId a, TermId b);
  TermId Sgt(TermId a, TermId b) { return Slt(b, a); }
  TermId Sge(TermId a, TermId b) { return Sle(b, a); }
  TermId Shl(TermId a, TermId b);
  TermId Lshr(TermId a, TermId b);
  TermId Ashr(TermId a, TermId b);
  TermId Ite(TermId cond, TermId t, TermId e);
  TermId Concat(TermId hi_part, TermId lo_part);
  TermId Extract(TermId a, unsigned hi, unsigned lo);
  TermId Zext(TermId a, unsigned width);
  TermId Sext(TermId a, unsigned width);

  // Logical helpers over 1-bit terms.
  TermId BoolNot(TermId a) { return Xor(a, True()); }

  const Term& term(TermId id) const { return terms_[id]; }
  unsigned WidthOf(TermId id) const { return terms_[id].width; }
  bool IsConst(TermId id) const { return terms_[id].op == TOp::kConst; }
  bool IsConstValue(TermId id, uint64_t v) const {
    return IsConst(id) && terms_[id].value == v;
  }
  size_t num_terms() const { return terms_.size(); }

  // Render a term as an s-expression (diagnostics, test-case dumps).
  std::string ToString(TermId id) const;

 private:
  TermId Intern(Term term);

  std::vector<Term> terms_;
  std::unordered_map<uint64_t, std::vector<TermId>> cons_table_;
  TermId true_ = kNoTerm;
  TermId false_ = kNoTerm;
};

// Evaluate a term under a concrete assignment of variables. Unassigned
// variables evaluate as 0 (callers that care should pre-populate).
uint64_t EvalTerm(const BvContext& ctx, TermId id,
                  const std::map<TermId, uint64_t>& vars);

}  // namespace hardsnap::solver
