#include "sim/simulator.h"

#include <set>

#include "common/bitops.h"

namespace hardsnap::sim {

using rtl::Design;
using rtl::Expr;
using rtl::ExprId;
using rtl::Op;
using rtl::SignalId;
using rtl::SignalKind;

Simulator::Simulator(const Design& design) : design_(design) {
  values_.assign(design.signals().size(), 0);
  memories_.resize(design.memories().size());
  for (size_t m = 0; m < memories_.size(); ++m)
    memories_[m].assign(design.memories()[m].depth, 0);
  flop_next_.assign(design.flops().size(), 0);

  flop_of_signal_.assign(design.signals().size(), -1);
  for (size_t i = 0; i < design.flops().size(); ++i)
    flop_of_signal_[design.flops()[i].q] = static_cast<int32_t>(i);
  shadow_.flops.assign(design.flops().size(), 0);
  shadow_.memories = memories_;
  shape_ = StateShape::Of(shadow_);
  // The shadow (all zeros) matches the initial live state, but mark
  // everything dirty so the first capture is a full, base-free baseline.
  dirty_chunks_.resize(shape_.num_spaces());
  for (uint32_t s = 0; s < shape_.num_spaces(); ++s) {
    dirty_chunks_[s].Resize(shape_.SpaceWords(s));
    dirty_chunks_[s].MarkAll();
  }
}

Result<Simulator> Simulator::Create(const Design& design) {
  HS_RETURN_IF_ERROR(design.Validate());
  Simulator sim(design);
  HS_RETURN_IF_ERROR(sim.Levelize());
  sim.Eval();
  return sim;
}

namespace {

// Collect the signals an expression reads (for levelization).
void CollectReads(const Design& d, ExprId id, std::set<SignalId>* out) {
  const Expr& e = d.expr(id);
  if (e.op == Op::kSignal) out->insert(e.signal);
  for (ExprId a : e.args) CollectReads(d, a, out);
}

}  // namespace

Status Simulator::Levelize() {
  const auto& comb = design_.comb();
  const size_t n = comb.size();

  // driver-of-signal -> comb index
  std::vector<int32_t> driver(design_.signals().size(), -1);
  for (size_t i = 0; i < n; ++i) driver[comb[i].target] = static_cast<int32_t>(i);

  // edges: assignment j must run before i if i reads j's target
  std::vector<std::vector<uint32_t>> succs(n);
  std::vector<uint32_t> indegree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    std::set<SignalId> reads;
    CollectReads(design_, comb[i].value, &reads);
    for (SignalId r : reads) {
      int32_t j = driver[r];
      if (j >= 0 && static_cast<size_t>(j) != i) {
        succs[static_cast<size_t>(j)].push_back(static_cast<uint32_t>(i));
        ++indegree[i];
      } else if (j >= 0 && static_cast<size_t>(j) == i) {
        return Internal("combinational cycle: '" +
                        design_.signal(comb[i].target).name +
                        "' depends on itself");
      }
    }
  }

  comb_order_.clear();
  comb_order_.reserve(n);
  std::vector<uint32_t> ready;
  for (size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) ready.push_back(static_cast<uint32_t>(i));
  while (!ready.empty()) {
    uint32_t i = ready.back();
    ready.pop_back();
    comb_order_.push_back(i);
    for (uint32_t s : succs[i])
      if (--indegree[s] == 0) ready.push_back(s);
  }
  if (comb_order_.size() != n) {
    // Name one signal on the cycle for the diagnostic.
    for (size_t i = 0; i < n; ++i) {
      if (indegree[i] != 0)
        return Internal("combinational cycle through '" +
                        design_.signal(comb[i].target).name + "'");
    }
    return Internal("combinational cycle detected");
  }
  return Status::Ok();
}

uint64_t Simulator::EvalExpr(ExprId id) const {
  const Expr& e = design_.expr(id);
  switch (e.op) {
    case Op::kConst: return e.imm;
    case Op::kSignal: return values_[e.signal];
    case Op::kMemRead: {
      uint64_t addr = EvalExpr(e.args[0]);
      const auto& mem = memories_[e.memory];
      return addr < mem.size() ? mem[addr] : 0;  // OOB reads return 0
    }
    default: break;
  }
  const unsigned w = e.width;
  auto aw = [&](int i) { return design_.expr(e.args[i]).width; };
  switch (e.op) {
    case Op::kNot: return TruncBits(~EvalExpr(e.args[0]), w);
    case Op::kNeg: return TruncBits(~EvalExpr(e.args[0]) + 1, w);
    case Op::kRedAnd: return EvalExpr(e.args[0]) == LowMask(aw(0)) ? 1u : 0u;
    case Op::kRedOr: return EvalExpr(e.args[0]) != 0 ? 1u : 0u;
    case Op::kRedXor: return XorReduce(EvalExpr(e.args[0]), aw(0));
    case Op::kLogicNot: return EvalExpr(e.args[0]) == 0 ? 1u : 0u;
    case Op::kAnd: return EvalExpr(e.args[0]) & EvalExpr(e.args[1]);
    case Op::kOr: return EvalExpr(e.args[0]) | EvalExpr(e.args[1]);
    case Op::kXor: return EvalExpr(e.args[0]) ^ EvalExpr(e.args[1]);
    case Op::kAdd: return TruncBits(EvalExpr(e.args[0]) + EvalExpr(e.args[1]), w);
    case Op::kSub: return TruncBits(EvalExpr(e.args[0]) - EvalExpr(e.args[1]), w);
    case Op::kMul: return TruncBits(EvalExpr(e.args[0]) * EvalExpr(e.args[1]), w);
    case Op::kDiv: {
      uint64_t b = EvalExpr(e.args[1]);
      return b == 0 ? LowMask(w) : TruncBits(EvalExpr(e.args[0]) / b, w);
    }
    case Op::kMod: {
      uint64_t b = EvalExpr(e.args[1]);
      uint64_t a = EvalExpr(e.args[0]);
      return b == 0 ? TruncBits(a, w) : TruncBits(a % b, w);
    }
    case Op::kEq: return EvalExpr(e.args[0]) == EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kNe: return EvalExpr(e.args[0]) != EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kLtU: return EvalExpr(e.args[0]) < EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kLeU: return EvalExpr(e.args[0]) <= EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kGtU: return EvalExpr(e.args[0]) > EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kGeU: return EvalExpr(e.args[0]) >= EvalExpr(e.args[1]) ? 1u : 0u;
    case Op::kLtS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) <
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kLeS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) <=
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kGtS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) >
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kGeS:
      return SignExtend(EvalExpr(e.args[0]), aw(0)) >=
                     SignExtend(EvalExpr(e.args[1]), aw(1))
                 ? 1u : 0u;
    case Op::kShl: {
      uint64_t sh = EvalExpr(e.args[1]);
      return sh >= w ? 0 : TruncBits(EvalExpr(e.args[0]) << sh, w);
    }
    case Op::kShrL: {
      uint64_t sh = EvalExpr(e.args[1]);
      return sh >= 64 ? 0 : EvalExpr(e.args[0]) >> sh;
    }
    case Op::kShrA: {
      int64_t s = SignExtend(EvalExpr(e.args[0]), aw(0));
      uint64_t sh = EvalExpr(e.args[1]);
      if (sh > 63) sh = 63;
      return TruncBits(static_cast<uint64_t>(s >> sh), w);
    }
    case Op::kLogicAnd:
      return (EvalExpr(e.args[0]) != 0 && EvalExpr(e.args[1]) != 0) ? 1u : 0u;
    case Op::kLogicOr:
      return (EvalExpr(e.args[0]) != 0 || EvalExpr(e.args[1]) != 0) ? 1u : 0u;
    case Op::kMux:
      return EvalExpr(e.args[0]) != 0 ? TruncBits(EvalExpr(e.args[1]), w)
                                      : TruncBits(EvalExpr(e.args[2]), w);
    case Op::kConcat: {
      uint64_t acc = 0;
      for (size_t i = 0; i < e.args.size(); ++i) {
        unsigned pw = design_.expr(e.args[i]).width;
        acc = (acc << pw) | TruncBits(EvalExpr(e.args[i]), pw);
      }
      return acc;
    }
    case Op::kSlice: return ExtractBits(EvalExpr(e.args[0]), e.hi, e.lo);
    case Op::kZext: return EvalExpr(e.args[0]);
    case Op::kSext:
      return TruncBits(
          static_cast<uint64_t>(SignExtend(EvalExpr(e.args[0]), aw(0))), w);
    case Op::kConst:
    case Op::kSignal:
    case Op::kMemRead:
      break;
  }
  HS_CHECK_MSG(false, "unhandled op in Simulator::EvalExpr");
  return 0;
}

void Simulator::Eval() const {
  if (!dirty_) return;
  const auto& comb = design_.comb();
  for (uint32_t i : comb_order_) {
    const auto& ca = comb[i];
    values_[ca.target] =
        TruncBits(EvalExpr(ca.value), design_.signal(ca.target).width);
  }
  dirty_ = false;
}

void Simulator::CommitEdge() {
  const auto& flops = design_.flops();
  for (size_t i = 0; i < flops.size(); ++i)
    flop_next_[i] = EvalExpr(flops[i].next);

  // Memory writes read pre-edge values too; evaluate before committing
  // flops. Writes commit in declaration order (last write wins).
  struct PendingWrite { rtl::MemoryId mem; uint64_t addr, data; };
  std::vector<PendingWrite> pending;
  for (const auto& mw : design_.mem_writes()) {
    if (EvalExpr(mw.enable) != 0) {
      pending.push_back({mw.memory, EvalExpr(mw.addr),
                         TruncBits(EvalExpr(mw.data),
                                   design_.memory(mw.memory).width)});
    }
  }

  for (size_t i = 0; i < flops.size(); ++i) {
    const uint64_t next =
        TruncBits(flop_next_[i], design_.signal(flops[i].q).width);
    if (values_[flops[i].q] != next) {
      values_[flops[i].q] = next;
      dirty_chunks_[0].MarkWord(i);
    }
  }
  for (const auto& pw : pending) {
    auto& mem = memories_[pw.mem];
    if (pw.addr < mem.size() && mem[pw.addr] != pw.data) {  // OOB dropped
      mem[pw.addr] = pw.data;
      dirty_chunks_[1 + pw.mem].MarkWord(pw.addr);
    }
  }
}

void Simulator::CommitState(const HardwareState& next, uint64_t cycles) {
  HS_CHECK(shape_.Matches(next));
  WriteState(next, /*mark_dirty=*/true);
  cycle_count_ += cycles;
}

void Simulator::Tick(unsigned cycles) {
  for (unsigned c = 0; c < cycles; ++c) {
    Eval();
    CommitEdge();
    dirty_ = true;
    ++cycle_count_;
  }
  Eval();
}

Status Simulator::Reset(unsigned cycles) {
  const SignalId rst = design_.reset();
  if (rst == rtl::kInvalidId)
    return FailedPrecondition("design has no reset input");
  HS_RETURN_IF_ERROR(PokeInput(rst, 1));
  Tick(cycles);
  HS_RETURN_IF_ERROR(PokeInput(rst, 0));
  Eval();
  return Status::Ok();
}

Status Simulator::PokeInput(const std::string& name, uint64_t value) {
  SignalId id = design_.FindSignal(name);
  if (id == rtl::kInvalidId) return NotFound("no signal '" + name + "'");
  return PokeInput(id, value);
}

Status Simulator::PokeInput(SignalId id, uint64_t value) {
  const auto& s = design_.signal(id);
  if (s.kind != SignalKind::kInput)
    return InvalidArgument("'" + s.name + "' is not an input");
  values_[id] = TruncBits(value, s.width);
  dirty_ = true;
  return Status::Ok();
}

Result<uint64_t> Simulator::Peek(const std::string& name) const {
  SignalId id = design_.FindSignal(name);
  if (id == rtl::kInvalidId) return NotFound("no signal '" + name + "'");
  Eval();
  return values_[id];
}

Result<uint64_t> Simulator::PeekMemory(const std::string& name,
                                       unsigned index) const {
  rtl::MemoryId id = design_.FindMemory(name);
  if (id == rtl::kInvalidId) return NotFound("no memory '" + name + "'");
  if (index >= memories_[id].size())
    return OutOfRange("memory index out of range");
  return memories_[id][index];
}

Status Simulator::PokeRegister(const std::string& name, uint64_t value) {
  SignalId id = design_.FindSignal(name);
  if (id == rtl::kInvalidId) return NotFound("no signal '" + name + "'");
  const auto& s = design_.signal(id);
  const int32_t flop_index = flop_of_signal_[id];
  if (flop_index < 0)
    return InvalidArgument("'" + s.name + "' is not a register");
  const uint64_t v = TruncBits(value, s.width);
  if (values_[id] != v) {
    values_[id] = v;
    dirty_chunks_[0].MarkWord(static_cast<size_t>(flop_index));
  }
  dirty_ = true;
  return Status::Ok();
}

Status Simulator::PokeMemory(const std::string& name, unsigned index,
                             uint64_t value) {
  rtl::MemoryId id = design_.FindMemory(name);
  if (id == rtl::kInvalidId) return NotFound("no memory '" + name + "'");
  if (index >= memories_[id].size())
    return OutOfRange("memory index out of range");
  const uint64_t v = TruncBits(value, design_.memory(id).width);
  if (memories_[id][index] != v) {
    memories_[id][index] = v;
    dirty_chunks_[1 + id].MarkWord(index);
  }
  dirty_ = true;
  return Status::Ok();
}

HardwareState Simulator::DumpState() const {
  Eval();
  HardwareState st;
  st.flops.reserve(design_.flops().size());
  for (const auto& ff : design_.flops()) st.flops.push_back(values_[ff.q]);
  st.memories = memories_;
  return st;
}

uint64_t& Simulator::Live(uint32_t space, size_t word) {
  return space == 0 ? values_[design_.flops()[word].q]
                    : memories_[space - 1][word];
}

unsigned Simulator::LiveWidth(uint32_t space, size_t word) const {
  return space == 0 ? design_.signal(design_.flops()[word].q).width
                    : design_.memories()[space - 1].width;
}

void Simulator::WriteState(const HardwareState& st, bool mark_dirty) {
  for (uint32_t s = 0; s < shape_.num_spaces(); ++s) {
    const auto& words = Space(st, s);
    for (size_t w = 0; w < words.size(); ++w) {
      const uint64_t v = TruncBits(words[w], LiveWidth(s, w));
      uint64_t& live = Live(s, w);
      if (live == v) continue;
      live = v;
      if (mark_dirty) dirty_chunks_[s].MarkWord(w);
    }
  }
  dirty_ = true;
}

void Simulator::Resync() {
  for (uint32_t s = 0; s < shape_.num_spaces(); ++s) {
    auto& shadow = Space(shadow_, s);
    for (size_t w = 0; w < shadow.size(); ++w) shadow[w] = Live(s, w);
    dirty_chunks_[s].ClearAll();
  }
}

Status Simulator::RestoreState(const HardwareState& st) {
  if (!shape_.Matches(st))
    return InvalidArgument("snapshot shape does not match the design");
  WriteState(st, /*mark_dirty=*/false);
  Resync();
  return Status::Ok();
}

StateDelta Simulator::CaptureDelta() {
  Eval();
  StateDelta d{HashState(shadow_), shape_, {}};
  // Walk dirty chunks, compare against the shadow, emit the chunks that
  // really changed and fold them into the shadow.
  for (uint32_t s = 0; s < shape_.num_spaces(); ++s) {
    auto& shadow = Space(shadow_, s);
    ChunkBitmap& dirty = dirty_chunks_[s];
    for (uint32_t c = 0; c < dirty.num_chunks(); ++c) {
      if (!dirty.Test(c)) continue;
      const size_t start = size_t{c} * kChunkWords;
      const size_t end = start + shape_.ChunkLen(s, c);
      size_t w = start;
      while (w < end && Live(s, w) == shadow[w]) ++w;
      if (w == end) continue;
      DeltaChunk chunk{s, c, {}};
      chunk.words.reserve(end - start);
      for (w = start; w < end; ++w)
        chunk.words.push_back(shadow[w] = Live(s, w));
      d.chunks.push_back(std::move(chunk));
    }
    dirty.ClearAll();
  }
  return d;
}

Status Simulator::RestoreDelta(const StateDelta& delta) {
  HS_RETURN_IF_ERROR(delta.CheckBase(shadow_));
  for (uint32_t s = 0; s < shape_.num_spaces(); ++s) {
    // Revert any chunk dirtied since the sync point back to the shadow —
    // the delta is expressed against the sync point, not against whatever
    // the live state drifted to.
    const auto& shadow = Space(shadow_, s);
    ChunkBitmap& dirty = dirty_chunks_[s];
    for (uint32_t c = 0; c < dirty.num_chunks(); ++c) {
      if (!dirty.Test(c)) continue;
      const size_t start = size_t{c} * kChunkWords;
      for (size_t w = start; w < start + shape_.ChunkLen(s, c); ++w)
        Live(s, w) = shadow[w];
    }
    dirty.ClearAll();
  }
  // Apply the delta's chunks to both live and shadow state.
  for (const auto& c : delta.chunks) {
    auto& shadow = Space(shadow_, c.space);
    const size_t start = size_t{c.index} * kChunkWords;
    for (size_t i = 0; i < c.words.size(); ++i) {
      const size_t w = start + i;
      Live(c.space, w) = shadow[w] =
          TruncBits(c.words[i], LiveWidth(c.space, w));
    }
  }
  dirty_ = true;
  return Status::Ok();
}

void Simulator::MarkSynced() {
  Eval();
  Resync();
}

}  // namespace hardsnap::sim
