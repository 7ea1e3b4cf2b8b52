#include "solver/term.h"

#include <cstdio>

#include "common/bitops.h"
#include "common/fnv.h"

namespace hardsnap::solver {

const char* TOpName(TOp op) {
  switch (op) {
    case TOp::kConst: return "const";
    case TOp::kVar: return "var";
    case TOp::kNot: return "not";
    case TOp::kNeg: return "neg";
    case TOp::kAnd: return "and";
    case TOp::kOr: return "or";
    case TOp::kXor: return "xor";
    case TOp::kAdd: return "add";
    case TOp::kSub: return "sub";
    case TOp::kMul: return "mul";
    case TOp::kUdiv: return "udiv";
    case TOp::kUrem: return "urem";
    case TOp::kEq: return "eq";
    case TOp::kUlt: return "ult";
    case TOp::kUle: return "ule";
    case TOp::kSlt: return "slt";
    case TOp::kSle: return "sle";
    case TOp::kShl: return "shl";
    case TOp::kLshr: return "lshr";
    case TOp::kAshr: return "ashr";
    case TOp::kIte: return "ite";
    case TOp::kConcat: return "concat";
    case TOp::kExtract: return "extract";
    case TOp::kZext: return "zext";
    case TOp::kSext: return "sext";
  }
  return "?";
}

BvContext::BvContext() {
  true_ = Const(1, 1);
  false_ = Const(0, 1);
}

TermId BvContext::Intern(Term term) {
  // Hash over (op, width, value, hi, lo, args); variables are nominal and
  // never interned.
  if (term.op != TOp::kVar) {
    Fnv1a h;
    h.Mix(static_cast<uint64_t>(term.op));
    h.Mix(term.width);
    h.Mix(term.value);
    h.Mix(term.hi);
    h.Mix(term.lo);
    for (TermId a : term.args) h.Mix(static_cast<uint64_t>(a));
    auto& bucket = cons_table_[h.digest()];
    for (TermId cand : bucket) {
      const Term& t = terms_[cand];
      if (t.op == term.op && t.width == term.width && t.value == term.value &&
          t.hi == term.hi && t.lo == term.lo && t.args == term.args) {
        return cand;
      }
    }
    terms_.push_back(std::move(term));
    const TermId id = static_cast<TermId>(terms_.size() - 1);
    bucket.push_back(id);
    return id;
  }
  terms_.push_back(std::move(term));
  return static_cast<TermId>(terms_.size() - 1);
}

TermId BvContext::Const(uint64_t value, unsigned width) {
  HS_CHECK(width >= 1 && width <= 64);
  Term t;
  t.op = TOp::kConst;
  t.width = width;
  t.value = TruncBits(value, width);
  return Intern(std::move(t));
}

TermId BvContext::Var(std::string name, unsigned width) {
  HS_CHECK(width >= 1 && width <= 64);
  Term t;
  t.op = TOp::kVar;
  t.width = width;
  t.name = std::move(name);
  return Intern(std::move(t));
}

TermId BvContext::Not(TermId a) {
  const Term& ta = terms_[a];
  if (ta.op == TOp::kConst) return Const(~ta.value, ta.width);
  if (ta.op == TOp::kNot) return ta.args[0];  // ~~x = x
  Term t;
  t.op = TOp::kNot;
  t.width = ta.width;
  t.args = {a};
  return Intern(std::move(t));
}

TermId BvContext::Neg(TermId a) {
  const Term& ta = terms_[a];
  if (ta.op == TOp::kConst) return Const(~ta.value + 1, ta.width);
  Term t;
  t.op = TOp::kNeg;
  t.width = ta.width;
  t.args = {a};
  return Intern(std::move(t));
}

TermId BvContext::And(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) return Const(terms_[a].value & terms_[b].value, w);
  if (IsConstValue(a, 0) || IsConstValue(b, 0)) return Const(0, w);
  if (IsConstValue(a, LowMask(w))) return b;
  if (IsConstValue(b, LowMask(w))) return a;
  if (a == b) return a;
  Term t;
  t.op = TOp::kAnd;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Or(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) return Const(terms_[a].value | terms_[b].value, w);
  if (IsConstValue(a, 0)) return b;
  if (IsConstValue(b, 0)) return a;
  if (IsConstValue(a, LowMask(w)) || IsConstValue(b, LowMask(w)))
    return Const(LowMask(w), w);
  if (a == b) return a;
  Term t;
  t.op = TOp::kOr;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Xor(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) return Const(terms_[a].value ^ terms_[b].value, w);
  if (IsConstValue(a, 0)) return b;
  if (IsConstValue(b, 0)) return a;
  if (a == b) return Const(0, w);
  Term t;
  t.op = TOp::kXor;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Add(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) return Const(terms_[a].value + terms_[b].value, w);
  if (IsConstValue(a, 0)) return b;
  if (IsConstValue(b, 0)) return a;
  Term t;
  t.op = TOp::kAdd;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Sub(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) return Const(terms_[a].value - terms_[b].value, w);
  if (IsConstValue(b, 0)) return a;
  if (a == b) return Const(0, w);
  Term t;
  t.op = TOp::kSub;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Mul(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) return Const(terms_[a].value * terms_[b].value, w);
  if (IsConstValue(a, 0) || IsConstValue(b, 0)) return Const(0, w);
  if (IsConstValue(a, 1)) return b;
  if (IsConstValue(b, 1)) return a;
  Term t;
  t.op = TOp::kMul;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Udiv(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) {
    const uint64_t vb = terms_[b].value;
    return Const(vb == 0 ? LowMask(w) : terms_[a].value / vb, w);
  }
  if (IsConstValue(b, 1)) return a;
  Term t;
  t.op = TOp::kUdiv;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Urem(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) {
    const uint64_t vb = terms_[b].value;
    return Const(vb == 0 ? terms_[a].value : terms_[a].value % vb, w);
  }
  if (IsConstValue(b, 1)) return Const(0, w);
  Term t;
  t.op = TOp::kUrem;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Eq(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  if (IsConst(a) && IsConst(b))
    return terms_[a].value == terms_[b].value ? True() : False();
  if (a == b) return True();
  Term t;
  t.op = TOp::kEq;
  t.width = 1;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Ne(TermId a, TermId b) { return BoolNot(Eq(a, b)); }

TermId BvContext::Ult(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  if (IsConst(a) && IsConst(b))
    return terms_[a].value < terms_[b].value ? True() : False();
  if (a == b) return False();
  if (IsConstValue(b, 0)) return False();
  Term t;
  t.op = TOp::kUlt;
  t.width = 1;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Ule(TermId a, TermId b) {
  HS_CHECK(terms_[a].width == terms_[b].width);
  if (IsConst(a) && IsConst(b))
    return terms_[a].value <= terms_[b].value ? True() : False();
  if (a == b) return True();
  if (IsConstValue(a, 0)) return True();
  Term t;
  t.op = TOp::kUle;
  t.width = 1;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Slt(TermId a, TermId b) {
  const unsigned w = terms_[a].width;
  HS_CHECK(w == terms_[b].width);
  if (IsConst(a) && IsConst(b))
    return SignExtend(terms_[a].value, w) < SignExtend(terms_[b].value, w)
               ? True()
               : False();
  if (a == b) return False();
  Term t;
  t.op = TOp::kSlt;
  t.width = 1;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Sle(TermId a, TermId b) {
  const unsigned w = terms_[a].width;
  HS_CHECK(w == terms_[b].width);
  if (IsConst(a) && IsConst(b))
    return SignExtend(terms_[a].value, w) <= SignExtend(terms_[b].value, w)
               ? True()
               : False();
  if (a == b) return True();
  Term t;
  t.op = TOp::kSle;
  t.width = 1;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Shl(TermId a, TermId b) {
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) {
    const uint64_t sh = terms_[b].value;
    return Const(sh >= w ? 0 : terms_[a].value << sh, w);
  }
  if (IsConstValue(b, 0)) return a;
  Term t;
  t.op = TOp::kShl;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Lshr(TermId a, TermId b) {
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) {
    const uint64_t sh = terms_[b].value;
    return Const(sh >= w ? 0 : terms_[a].value >> sh, w);
  }
  if (IsConstValue(b, 0)) return a;
  Term t;
  t.op = TOp::kLshr;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Ashr(TermId a, TermId b) {
  const unsigned w = terms_[a].width;
  if (IsConst(a) && IsConst(b)) {
    uint64_t sh = terms_[b].value;
    if (sh >= w) sh = w - 1;
    return Const(
        static_cast<uint64_t>(SignExtend(terms_[a].value, w) >>
                              static_cast<int64_t>(sh)),
        w);
  }
  if (IsConstValue(b, 0)) return a;
  Term t;
  t.op = TOp::kAshr;
  t.width = w;
  t.args = {a, b};
  return Intern(std::move(t));
}

TermId BvContext::Ite(TermId cond, TermId then_t, TermId else_t) {
  HS_CHECK(terms_[cond].width == 1);
  HS_CHECK(terms_[then_t].width == terms_[else_t].width);
  if (IsConst(cond)) return terms_[cond].value ? then_t : else_t;
  if (then_t == else_t) return then_t;
  Term t;
  t.op = TOp::kIte;
  t.width = terms_[then_t].width;
  t.args = {cond, then_t, else_t};
  return Intern(std::move(t));
}

TermId BvContext::Concat(TermId hi_part, TermId lo_part) {
  const unsigned w = terms_[hi_part].width + terms_[lo_part].width;
  HS_CHECK_MSG(w <= 64, "concat wider than 64 bits");
  if (IsConst(hi_part) && IsConst(lo_part)) {
    return Const((terms_[hi_part].value << terms_[lo_part].width) |
                     terms_[lo_part].value,
                 w);
  }
  Term t;
  t.op = TOp::kConcat;
  t.width = w;
  t.args = {hi_part, lo_part};
  return Intern(std::move(t));
}

TermId BvContext::Extract(TermId a, unsigned hi, unsigned lo) {
  const Term& ta = terms_[a];
  HS_CHECK(hi >= lo && hi < ta.width);
  if (hi == ta.width - 1 && lo == 0) return a;
  if (ta.op == TOp::kConst) return Const(ExtractBits(ta.value, hi, lo), hi - lo + 1);
  Term t;
  t.op = TOp::kExtract;
  t.width = hi - lo + 1;
  t.hi = hi;
  t.lo = lo;
  t.args = {a};
  return Intern(std::move(t));
}

TermId BvContext::Zext(TermId a, unsigned width) {
  const Term& ta = terms_[a];
  HS_CHECK(width >= ta.width && width <= 64);
  if (width == ta.width) return a;
  if (ta.op == TOp::kConst) return Const(ta.value, width);
  Term t;
  t.op = TOp::kZext;
  t.width = width;
  t.args = {a};
  return Intern(std::move(t));
}

TermId BvContext::Sext(TermId a, unsigned width) {
  const Term& ta = terms_[a];
  HS_CHECK(width >= ta.width && width <= 64);
  if (width == ta.width) return a;
  if (ta.op == TOp::kConst)
    return Const(static_cast<uint64_t>(SignExtend(ta.value, ta.width)), width);
  Term t;
  t.op = TOp::kSext;
  t.width = width;
  t.args = {a};
  return Intern(std::move(t));
}

std::string BvContext::ToString(TermId id) const {
  const Term& t = terms_[id];
  switch (t.op) {
    case TOp::kConst: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%llx:%u",
                    static_cast<unsigned long long>(t.value), t.width);
      return buf;
    }
    case TOp::kVar:
      return t.name + ":" + std::to_string(t.width);
    case TOp::kExtract:
      return "(extract " + std::to_string(t.hi) + " " + std::to_string(t.lo) +
             " " + ToString(t.args[0]) + ")";
    default: {
      std::string out = "(";
      out += TOpName(t.op);
      for (TermId a : t.args) out += " " + ToString(a);
      out += ")";
      return out;
    }
  }
}

uint64_t EvalTerm(const BvContext& ctx, TermId id,
                  const std::map<TermId, uint64_t>& vars) {
  const Term& t = ctx.term(id);
  const unsigned w = t.width;
  auto arg = [&](int i) { return EvalTerm(ctx, t.args[i], vars); };
  auto aw = [&](int i) { return ctx.term(t.args[i]).width; };
  switch (t.op) {
    case TOp::kConst: return t.value;
    case TOp::kVar: {
      auto it = vars.find(id);
      return it == vars.end() ? 0 : TruncBits(it->second, w);
    }
    case TOp::kNot: return TruncBits(~arg(0), w);
    case TOp::kNeg: return TruncBits(~arg(0) + 1, w);
    case TOp::kAnd: return arg(0) & arg(1);
    case TOp::kOr: return arg(0) | arg(1);
    case TOp::kXor: return arg(0) ^ arg(1);
    case TOp::kAdd: return TruncBits(arg(0) + arg(1), w);
    case TOp::kSub: return TruncBits(arg(0) - arg(1), w);
    case TOp::kMul: return TruncBits(arg(0) * arg(1), w);
    case TOp::kUdiv: {
      const uint64_t b = arg(1);
      return b == 0 ? LowMask(w) : TruncBits(arg(0) / b, w);
    }
    case TOp::kUrem: {
      const uint64_t b = arg(1);
      const uint64_t a = arg(0);
      return b == 0 ? a : TruncBits(a % b, w);
    }
    case TOp::kEq: return arg(0) == arg(1) ? 1 : 0;
    case TOp::kUlt: return arg(0) < arg(1) ? 1 : 0;
    case TOp::kUle: return arg(0) <= arg(1) ? 1 : 0;
    case TOp::kSlt:
      return SignExtend(arg(0), aw(0)) < SignExtend(arg(1), aw(1)) ? 1 : 0;
    case TOp::kSle:
      return SignExtend(arg(0), aw(0)) <= SignExtend(arg(1), aw(1)) ? 1 : 0;
    case TOp::kShl: {
      const uint64_t sh = arg(1);
      return sh >= w ? 0 : TruncBits(arg(0) << sh, w);
    }
    case TOp::kLshr: {
      const uint64_t sh = arg(1);
      return sh >= w ? 0 : arg(0) >> sh;
    }
    case TOp::kAshr: {
      uint64_t sh = arg(1);
      if (sh >= w) sh = w - 1;
      return TruncBits(
          static_cast<uint64_t>(SignExtend(arg(0), aw(0)) >>
                                static_cast<int64_t>(sh)),
          w);
    }
    case TOp::kIte: return arg(0) ? arg(1) : arg(2);
    case TOp::kConcat:
      return TruncBits((arg(0) << aw(1)) | TruncBits(arg(1), aw(1)), w);
    case TOp::kExtract: return ExtractBits(arg(0), t.hi, t.lo);
    case TOp::kZext: return arg(0);
    case TOp::kSext:
      return TruncBits(static_cast<uint64_t>(SignExtend(arg(0), aw(0))), w);
  }
  return 0;
}

}  // namespace hardsnap::solver
