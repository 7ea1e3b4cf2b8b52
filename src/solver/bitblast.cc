#include "solver/bitblast.h"

#include <algorithm>
#include <unordered_map>

#include "common/bitops.h"
#include "common/fnv.h"

namespace hardsnap::solver {

namespace {

// One bit-blasting session: term -> vector of literals (LSB first).
class Blaster {
 public:
  explicit Blaster(const BvContext* ctx, SatSolver* sat)
      : ctx_(ctx), sat_(sat) {
    const Var v = sat_->NewVar();
    true_lit_ = MkLit(v);
    sat_->AddClause({true_lit_});
  }

  Lit TrueLit() const { return true_lit_; }
  Lit FalseLit() const { return NegLit(true_lit_); }

  const std::vector<Lit>& Blast(TermId id) {
    auto it = cache_.find(id);
    if (it != cache_.end()) return it->second;
    std::vector<Lit> bits = BlastUncached(id);
    return cache_.emplace(id, std::move(bits)).first->second;
  }

  const std::map<TermId, std::vector<Lit>>& var_bits() const {
    return var_bits_;
  }

 private:
  Lit FreshLit() { return MkLit(sat_->NewVar()); }

  Lit ConstLit(bool b) { return b ? true_lit_ : FalseLit(); }

  // out <-> a AND b
  Lit AndGate(Lit a, Lit b) {
    if (a == FalseLit() || b == FalseLit()) return FalseLit();
    if (a == true_lit_) return b;
    if (b == true_lit_) return a;
    if (a == b) return a;
    if (a == NegLit(b)) return FalseLit();
    Lit o = FreshLit();
    sat_->AddClause({NegLit(o), a});
    sat_->AddClause({NegLit(o), b});
    sat_->AddClause({o, NegLit(a), NegLit(b)});
    return o;
  }

  Lit OrGate(Lit a, Lit b) { return NegLit(AndGate(NegLit(a), NegLit(b))); }

  // out <-> a XOR b
  Lit XorGate(Lit a, Lit b) {
    if (a == FalseLit()) return b;
    if (b == FalseLit()) return a;
    if (a == true_lit_) return NegLit(b);
    if (b == true_lit_) return NegLit(a);
    if (a == b) return FalseLit();
    if (a == NegLit(b)) return true_lit_;
    Lit o = FreshLit();
    sat_->AddClause({NegLit(o), a, b});
    sat_->AddClause({NegLit(o), NegLit(a), NegLit(b)});
    sat_->AddClause({o, NegLit(a), b});
    sat_->AddClause({o, a, NegLit(b)});
    return o;
  }

  // out <-> sel ? t : e
  Lit MuxGate(Lit sel, Lit t, Lit e) {
    if (sel == true_lit_) return t;
    if (sel == FalseLit()) return e;
    if (t == e) return t;
    Lit o = FreshLit();
    sat_->AddClause({NegLit(sel), NegLit(t), o});
    sat_->AddClause({NegLit(sel), t, NegLit(o)});
    sat_->AddClause({sel, NegLit(e), o});
    sat_->AddClause({sel, e, NegLit(o)});
    return o;
  }

  // Majority (carry) gate: out <-> at least two of {a,b,c}.
  Lit MajGate(Lit a, Lit b, Lit c) {
    if (a == b) return a;
    if (a == c) return a;
    if (b == c) return b;
    Lit o = FreshLit();
    sat_->AddClause({NegLit(a), NegLit(b), o});
    sat_->AddClause({NegLit(a), NegLit(c), o});
    sat_->AddClause({NegLit(b), NegLit(c), o});
    sat_->AddClause({a, b, NegLit(o)});
    sat_->AddClause({a, c, NegLit(o)});
    sat_->AddClause({b, c, NegLit(o)});
    return o;
  }

  // sum = a + b + cin; returns sum bits, sets *cout.
  std::vector<Lit> Adder(const std::vector<Lit>& a, const std::vector<Lit>& b,
                         Lit cin, Lit* cout) {
    HS_CHECK(a.size() == b.size());
    std::vector<Lit> sum(a.size());
    Lit carry = cin;
    for (size_t i = 0; i < a.size(); ++i) {
      const Lit axb = XorGate(a[i], b[i]);
      sum[i] = XorGate(axb, carry);
      carry = MajGate(a[i], b[i], carry);
    }
    if (cout) *cout = carry;
    return sum;
  }

  std::vector<Lit> Negated(const std::vector<Lit>& a) {
    std::vector<Lit> out(a.size());
    for (size_t i = 0; i < a.size(); ++i) out[i] = NegLit(a[i]);
    return out;
  }

  // a < b (unsigned) == NOT carry-out of a + ~b + 1.
  Lit UltGate(const std::vector<Lit>& a, const std::vector<Lit>& b) {
    Lit cout = FalseLit();
    Adder(a, Negated(b), true_lit_, &cout);
    return NegLit(cout);
  }

  Lit EqGate(const std::vector<Lit>& a, const std::vector<Lit>& b) {
    Lit acc = true_lit_;
    for (size_t i = 0; i < a.size(); ++i)
      acc = AndGate(acc, NegLit(XorGate(a[i], b[i])));
    return acc;
  }

  // Barrel shifter. dir > 0: left; dir < 0: logical right. `fill` is the
  // bit shifted in (sign bit for arithmetic right shifts).
  std::vector<Lit> Shifter(const std::vector<Lit>& a,
                           const std::vector<Lit>& sh, bool left, Lit fill) {
    const size_t w = a.size();
    std::vector<Lit> cur = a;
    // Stages for shift-amount bits that can matter.
    for (size_t s = 0; s < sh.size() && (size_t{1} << s) <= 2 * w; ++s) {
      const size_t dist = size_t{1} << s;
      std::vector<Lit> shifted(w);
      for (size_t i = 0; i < w; ++i) {
        if (left) {
          shifted[i] = i >= dist ? cur[i - dist] : fill;
        } else {
          shifted[i] = i + dist < w ? cur[i + dist] : fill;
        }
      }
      std::vector<Lit> next(w);
      for (size_t i = 0; i < w; ++i) next[i] = MuxGate(sh[s], shifted[i], cur[i]);
      cur = next;
    }
    // Any higher shift-amount bit forces a full shift-out.
    Lit overflow = FalseLit();
    for (size_t s = 0; s < sh.size(); ++s) {
      if ((size_t{1} << s) > 2 * w || s >= 63) {
        overflow = OrGate(overflow, sh[s]);
      }
    }
    // Shift amounts >= w also shift everything out; detect via comparison.
    {
      std::vector<Lit> wconst = ConstBits(w, sh.size());
      Lit ge_w = NegLit(UltGate(sh, wconst));  // sh >= w
      overflow = OrGate(overflow, ge_w);
    }
    std::vector<Lit> out(w);
    for (size_t i = 0; i < w; ++i) out[i] = MuxGate(overflow, fill, cur[i]);
    return out;
  }

  std::vector<Lit> ConstBits(uint64_t v, size_t width) {
    std::vector<Lit> bits(width);
    for (size_t i = 0; i < width; ++i) bits[i] = ConstLit((v >> i) & 1);
    return bits;
  }

  // Shift-add multiplier (modulo 2^w).
  std::vector<Lit> Multiplier(const std::vector<Lit>& a,
                              const std::vector<Lit>& b) {
    const size_t w = a.size();
    std::vector<Lit> acc = ConstBits(0, w);
    for (size_t i = 0; i < w; ++i) {
      // partial = (a << i) AND b[i]
      std::vector<Lit> partial(w);
      for (size_t j = 0; j < w; ++j)
        partial[j] = j >= i ? AndGate(a[j - i], b[i]) : FalseLit();
      acc = Adder(acc, partial, FalseLit(), nullptr);
    }
    return acc;
  }

  // Restoring divider; returns quotient, sets *rem. RISC-V semantics for
  // division by zero are imposed with a final mux.
  std::vector<Lit> Divider(const std::vector<Lit>& a,
                           const std::vector<Lit>& b, std::vector<Lit>* rem) {
    const size_t w = a.size();
    // r holds w+1 bits to survive the shift before comparison.
    std::vector<Lit> r = ConstBits(0, w + 1);
    std::vector<Lit> bx = b;
    bx.push_back(FalseLit());  // b zero-extended to w+1
    std::vector<Lit> q(w, FalseLit());
    for (size_t i = w; i-- > 0;) {
      // r = (r << 1) | a[i]
      for (size_t j = w; j > 0; --j) r[j] = r[j - 1];
      r[0] = a[i];
      // if (r >= b) { r -= b; q[i] = 1; }
      Lit ge = NegLit(UltGate(r, bx));
      Lit borrow_cout = FalseLit();
      std::vector<Lit> diff = Adder(r, Negated(bx), true_lit_, &borrow_cout);
      for (size_t j = 0; j < r.size(); ++j) r[j] = MuxGate(ge, diff[j], r[j]);
      q[i] = ge;
    }
    // Division by zero: q = all ones, r = a.
    Lit b_zero = EqGate(b, ConstBits(0, w));
    for (size_t i = 0; i < w; ++i) q[i] = MuxGate(b_zero, true_lit_, q[i]);
    rem->resize(w);
    for (size_t i = 0; i < w; ++i)
      (*rem)[i] = MuxGate(b_zero, a[i], r[i]);
    return q;
  }

  std::vector<Lit> BlastUncached(TermId id) {
    const Term& t = ctx_->term(id);
    const unsigned w = t.width;
    auto arg = [&](int i) -> const std::vector<Lit>& {
      return Blast(t.args[i]);
    };
    switch (t.op) {
      case TOp::kConst:
        return ConstBits(t.value, w);
      case TOp::kVar: {
        std::vector<Lit> bits(w);
        for (unsigned i = 0; i < w; ++i) bits[i] = FreshLit();
        var_bits_[id] = bits;
        return bits;
      }
      case TOp::kNot:
        return Negated(arg(0));
      case TOp::kNeg: {
        Lit cout;
        return Adder(Negated(arg(0)), ConstBits(0, w), true_lit_, &cout);
      }
      case TOp::kAnd: {
        std::vector<Lit> out(w);
        for (unsigned i = 0; i < w; ++i) out[i] = AndGate(arg(0)[i], arg(1)[i]);
        return out;
      }
      case TOp::kOr: {
        std::vector<Lit> out(w);
        for (unsigned i = 0; i < w; ++i) out[i] = OrGate(arg(0)[i], arg(1)[i]);
        return out;
      }
      case TOp::kXor: {
        std::vector<Lit> out(w);
        for (unsigned i = 0; i < w; ++i) out[i] = XorGate(arg(0)[i], arg(1)[i]);
        return out;
      }
      case TOp::kAdd:
        return Adder(arg(0), arg(1), FalseLit(), nullptr);
      case TOp::kSub:
        return Adder(arg(0), Negated(arg(1)), true_lit_, nullptr);
      case TOp::kMul:
        return Multiplier(arg(0), arg(1));
      case TOp::kUdiv: {
        std::vector<Lit> rem;
        return Divider(arg(0), arg(1), &rem);
      }
      case TOp::kUrem: {
        std::vector<Lit> rem;
        Divider(arg(0), arg(1), &rem);
        return rem;
      }
      case TOp::kEq:
        return {EqGate(arg(0), arg(1))};
      case TOp::kUlt:
        return {UltGate(arg(0), arg(1))};
      case TOp::kUle:
        return {NegLit(UltGate(arg(1), arg(0)))};
      case TOp::kSlt: {
        // Flip sign bits, compare unsigned.
        std::vector<Lit> a = arg(0), b = arg(1);
        a.back() = NegLit(a.back());
        b.back() = NegLit(b.back());
        return {UltGate(a, b)};
      }
      case TOp::kSle: {
        std::vector<Lit> a = arg(0), b = arg(1);
        a.back() = NegLit(a.back());
        b.back() = NegLit(b.back());
        return {NegLit(UltGate(b, a))};
      }
      case TOp::kShl:
        return Shifter(arg(0), arg(1), /*left=*/true, FalseLit());
      case TOp::kLshr:
        return Shifter(arg(0), arg(1), /*left=*/false, FalseLit());
      case TOp::kAshr: {
        const std::vector<Lit>& a = arg(0);
        return Shifter(a, arg(1), /*left=*/false, a.back());
      }
      case TOp::kIte: {
        const Lit sel = arg(0)[0];
        std::vector<Lit> out(w);
        for (unsigned i = 0; i < w; ++i)
          out[i] = MuxGate(sel, arg(1)[i], arg(2)[i]);
        return out;
      }
      case TOp::kConcat: {
        std::vector<Lit> out = arg(1);  // low part
        const auto& hi = arg(0);
        out.insert(out.end(), hi.begin(), hi.end());
        return out;
      }
      case TOp::kExtract: {
        const auto& a = arg(0);
        return std::vector<Lit>(a.begin() + t.lo, a.begin() + t.hi + 1);
      }
      case TOp::kZext: {
        std::vector<Lit> out = arg(0);
        out.resize(w, FalseLit());
        return out;
      }
      case TOp::kSext: {
        std::vector<Lit> out = arg(0);
        const Lit sign = out.back();
        out.resize(w, sign);
        return out;
      }
    }
    HS_CHECK_MSG(false, "unhandled op in bit blaster");
    return {};
  }

  const BvContext* ctx_;
  SatSolver* sat_;
  Lit true_lit_;
  std::unordered_map<TermId, std::vector<Lit>> cache_;
  std::map<TermId, std::vector<Lit>> var_bits_;
};

}  // namespace

Result<BvResult> BvSolver::Check(const std::vector<TermId>& assertions,
                                 BvModel* model) {
  ++stats_.queries;

  // Fast path: all-constant assertions.
  bool all_const = true;
  for (TermId a : assertions) {
    if (ctx_->WidthOf(a) != 1)
      return InvalidArgument("assertion is not a 1-bit term");
    if (!ctx_->IsConst(a)) {
      all_const = false;
    } else if (ctx_->term(a).value == 0) {
      ++stats_.unsat;
      return BvResult::kUnsat;
    }
  }
  if (all_const) {
    ++stats_.sat;
    if (model) model->values.clear();
    return BvResult::kSat;
  }

  // Cache lookup on the canonical assertion set (sorted unique TermIds,
  // constants-true dropped; hash-consing makes ids canonical).
  uint64_t cache_key = 0;
  if (cache_enabled_) {
    std::vector<TermId> canon;
    canon.reserve(assertions.size());
    for (TermId a : assertions)
      if (!ctx_->IsConst(a)) canon.push_back(a);
    std::sort(canon.begin(), canon.end());
    canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
    Fnv1a h;
    for (TermId a : canon) h.Mix(static_cast<uint64_t>(a));
    cache_key = h.digest();
    auto it = cache_.find(cache_key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      it->second.result == BvResult::kSat ? ++stats_.sat : ++stats_.unsat;
      if (model) *model = it->second.model;
      return it->second.result;
    }
  }

  SatSolver sat;
  Blaster blaster(ctx_, &sat);
  for (TermId a : assertions) {
    const auto& bits = blaster.Blast(a);
    sat.AddClause({bits[0]});
  }
  const SatResult r = sat.Solve();
  stats_.sat_vars += static_cast<uint64_t>(sat.num_vars());
  stats_.conflicts += sat.num_conflicts();
  if (r == SatResult::kUnsat) {
    ++stats_.unsat;
    if (cache_enabled_) cache_[cache_key] = CacheEntry{BvResult::kUnsat, {}};
    return BvResult::kUnsat;
  }
  ++stats_.sat;
  BvModel extracted;
  for (const auto& [term, bits] : blaster.var_bits()) {
    uint64_t v = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (sat.ValueOf(VarOf(bits[i])) != IsNeg(bits[i])) v |= uint64_t{1} << i;
    }
    extracted.values[term] = v;
  }
  if (model) *model = extracted;
  if (cache_enabled_)
    cache_[cache_key] = CacheEntry{BvResult::kSat, std::move(extracted)};
  return BvResult::kSat;
}

}  // namespace hardsnap::solver
