#include "scanchain/scan_controller.h"

#include "common/bitops.h"

namespace hardsnap::scanchain {

using rtl::Design;
using rtl::Expr;
using rtl::ExprId;
using rtl::Op;
using rtl::SignalId;
using sim::HardwareState;

namespace {

// Pin values assumed during one phase of a pass, per SignalId; -1 = free.
using PinValues = std::vector<int8_t>;

// An expression folded under pin assumptions: a known value, or the
// residual node reached after taking every mux whose select is known.
struct Folded {
  ExprId node;
  bool known;
  uint64_t value;
};

// A constant folder over the ops the scan pass gates with. Any other op is
// a residue, and an And stops at its first known-zero operand (an Or at its
// first all-ones one), so folding a gated root does not descend into the
// functional logic it gates.
Folded Fold(const Design& d, const PinValues& pins, ExprId id) {
  const Expr& e = d.expr(id);
  const Folded residue{id, false, 0};
  auto known = [&](uint64_t v) {
    return Folded{id, true, TruncBits(v, e.width)};
  };
  switch (e.op) {
    case Op::kConst:
      return known(e.imm);
    case Op::kSignal:
      return pins[e.signal] < 0 ? residue
                                : known(static_cast<uint64_t>(pins[e.signal]));
    case Op::kMux: {
      const Folded sel = Fold(d, pins, e.args[0]);
      if (!sel.known) return residue;
      return Fold(d, pins, e.args[sel.value != 0 ? 1 : 2]);
    }
    case Op::kNot:
    case Op::kLogicNot: {
      const Folded a = Fold(d, pins, e.args[0]);
      if (!a.known) return residue;
      return known(e.op == Op::kNot ? ~a.value : a.value == 0);
    }
    case Op::kAnd:
    case Op::kLogicAnd:
    case Op::kOr:
    case Op::kLogicOr: {
      const bool is_and = e.op == Op::kAnd || e.op == Op::kLogicAnd;
      const bool logic = e.op == Op::kLogicAnd || e.op == Op::kLogicOr;
      const uint64_t ones = logic ? 1 : LowMask(e.width);
      const uint64_t decisive = is_and ? 0 : ones;
      uint64_t acc = is_and ? ones : 0;
      bool all_known = true;
      for (ExprId arg : e.args) {
        const Folded a = Fold(d, pins, arg);
        if (!a.known) {
          all_known = false;
          continue;
        }
        const uint64_t v = logic ? (a.value != 0) : a.value;
        if (v == decisive) return known(decisive);
        acc = is_and ? (acc & v) : (acc | v);
      }
      return all_known ? known(acc) : residue;
    }
    default:
      return residue;
  }
}

bool IsSig(const Design& d, ExprId id, SignalId s) {
  const Expr& e = d.expr(id);
  return e.op == Op::kSignal && e.signal == s;
}

// The serial bit that `src` (a `width`-bit register, or scan_in) passes on
// down the chain: itself when one bit wide, else its MSB.
bool IsChainBit(const Design& d, ExprId id, SignalId src, unsigned width) {
  if (width == 1) return IsSig(d, id, src);
  const Expr& e = d.expr(id);
  return e.op == Op::kSlice && e.hi == width - 1 && e.lo == width - 1 &&
         IsSig(d, e.args[0], src);
}

// {q[W-2:0], prev}, or prev when W = 1.
bool IsShiftArm(const Design& d, ExprId id, SignalId q, unsigned w,
                SignalId src, unsigned src_width) {
  if (w == 1) return IsChainBit(d, id, src, src_width);
  const Expr& e = d.expr(id);
  if (e.op != Op::kConcat || e.args.size() != 2) return false;
  const Expr& low = d.expr(e.args[0]);
  return low.op == Op::kSlice && low.hi == w - 2 && low.lo == 0 &&
         IsSig(d, low.args[0], q) &&
         IsChainBit(d, e.args[1], src, src_width);
}

}  // namespace

ScanController::ScanController(sim::Simulator* sim, const ScanChainMap& map)
    : sim_(sim), map_(&map) {
  const auto& d = sim->design();
  scan_enable_ = d.FindSignal("scan_enable");
  scan_in_ = d.FindSignal("scan_in");
  scan_out_ = d.FindSignal("scan_out");
  scan_hold_ = d.FindSignal("scan_hold");
  HS_CHECK_MSG(scan_enable_ != rtl::kInvalidId &&
                   scan_in_ != rtl::kInvalidId &&
                   scan_out_ != rtl::kInvalidId &&
                   scan_hold_ != rtl::kInvalidId,
               "simulator is not running an instrumented design");
  for (const MemPort& mp : map.mem_ports) {
    Port p{d.FindSignal(mp.port_prefix + "_en"),
           d.FindSignal(mp.port_prefix + "_addr"),
           d.FindSignal(mp.port_prefix + "_wdata"),
           d.FindSignal(mp.port_prefix + "_wen"),
           d.FindSignal(mp.port_prefix + "_rdata")};
    for (SignalId s : {p.en, p.addr, p.wdata, p.wen, p.rdata})
      HS_CHECK_MSG(s != rtl::kInvalidId,
                   "instrumented design lacks the ports of " + mp.port_prefix);
    ports_.push_back(p);
  }
  proven_ = ProveShortcut();
}

bool ScanController::ProveShortcut() const {
  const Design& d = sim_->design();
  const auto& flops = d.flops();
  // Unchained flops keep clocking during a shift.
  if (map_->slots.size() != flops.size()) return false;

  PinValues shift(d.signals().size(), -1);
  PinValues hold = shift;
  shift[scan_enable_] = 1;
  shift[scan_hold_] = 0;
  for (const Port& p : ports_) shift[p.en] = shift[p.wen] = 0;
  hold[scan_enable_] = 0;
  hold[scan_hold_] = 1;

  std::vector<bool> chained(flops.size(), false);
  SignalId src = scan_in_;
  unsigned src_width = 1;
  for (const ChainSlot& slot : map_->slots) {
    if (slot.flop_index >= flops.size() || chained[slot.flop_index])
      return false;
    chained[slot.flop_index] = true;
    const rtl::FlipFlop& ff = flops[slot.flop_index];
    const unsigned w = d.signal(ff.q).width;
    if (w != slot.width ||
        !IsShiftArm(d, Fold(d, shift, ff.next).node, ff.q, w, src,
                    src_width) ||
        !IsSig(d, Fold(d, hold, ff.next).node, ff.q))
      return false;
    src = ff.q;
    src_width = w;
  }

  std::vector<ExprId> driver(d.signals().size(), rtl::kInvalidId);
  for (const auto& ca : d.comb()) driver[ca.target] = ca.value;
  if (driver[scan_out_] == rtl::kInvalidId ||
      !IsChainBit(d, driver[scan_out_], src, src_width))
    return false;

  std::vector<bool> ported(d.memories().size(), false);
  for (size_t k = 0; k < ports_.size(); ++k) {
    const MemPort& mp = map_->mem_ports[k];
    const Port& p = ports_[k];
    if (mp.memory < 0 || static_cast<size_t>(mp.memory) >= ported.size() ||
        ported[mp.memory])
      return false;
    ported[mp.memory] = true;
    const rtl::Memory& mem = d.memory(mp.memory);
    const ExprId rd = driver[p.rdata];
    if (mp.depth != mem.depth || d.signal(p.wdata).width != mem.width ||
        d.signal(p.rdata).width != mem.width ||
        LowMask(d.signal(p.addr).width) < mem.depth - 1 ||
        rd == rtl::kInvalidId || d.expr(rd).op != Op::kMemRead ||
        d.expr(rd).memory != mp.memory ||
        !IsSig(d, d.expr(rd).args[0], p.addr))
      return false;
  }

  // Each port writes mem[addr] = wdata when en & wen; every other write
  // must be off in both phases.
  std::vector<int> port_writes(ports_.size(), 0);
  for (const rtl::MemWrite& mw : d.mem_writes()) {
    const Expr& en = d.expr(mw.enable);
    size_t k = 0;
    for (; k < ports_.size(); ++k) {
      const Port& p = ports_[k];
      if (mw.memory == map_->mem_ports[k].memory &&
          en.op == Op::kLogicAnd && IsSig(d, en.args[0], p.en) &&
          IsSig(d, en.args[1], p.wen) && IsSig(d, mw.addr, p.addr) &&
          IsSig(d, mw.data, p.wdata))
        break;
    }
    if (k < ports_.size()) {
      ++port_writes[k];
      continue;
    }
    for (const PinValues* pins : {&shift, &hold}) {
      const Folded f = Fold(d, *pins, mw.enable);
      if (!f.known || f.value != 0) return false;
    }
  }
  for (int n : port_writes)
    if (n != 1) return false;
  return true;
}

bool ScanController::PinsIdle() const {
  if (sim_->PeekId(scan_hold_) != 0) return false;
  for (const Port& p : ports_)
    if (sim_->PeekId(p.en) != 0 || sim_->PeekId(p.wen) != 0) return false;
  return true;
}

Result<HardwareState> ScanController::Pass(const HardwareState* incoming,
                                           bool bit_serial) {
  if (incoming != nullptr && !sim_->shape().Matches(*incoming))
    return InvalidArgument("state shape does not match the design");
  const Design& d = sim_->design();
  const unsigned n = map_->total_bits;
  // Unchained flops and unported memories read back as zero.
  HardwareState old;
  old.flops.assign(d.flops().size(), 0);
  old.memories.resize(d.memories().size());
  for (size_t m = 0; m < old.memories.size(); ++m)
    old.memories[m].assign(d.memories()[m].depth, 0);

  if (!bit_serial && proven_ && PinsIdle()) {
    HardwareState next = sim_->DumpState();
    for (const ChainSlot& slot : map_->slots) {
      old.flops[slot.flop_index] = next.flops[slot.flop_index];
      if (incoming != nullptr)
        next.flops[slot.flop_index] = incoming->flops[slot.flop_index];
    }
    for (const MemPort& mp : map_->mem_ports) {
      old.memories[mp.memory] = next.memories[mp.memory];
      if (incoming != nullptr)
        next.memories[mp.memory] = incoming->memories[mp.memory];
    }
    sim_->CommitState(next, PassCycles());
    // Leave the pins as the bit-serial pass does: scan_in holds the last
    // bit fed (chain position 0), each port its last address and word.
    const HardwareState& fed = incoming != nullptr ? *incoming : old;
    if (n > 0)
      HS_RETURN_IF_ERROR(sim_->PokeInput(
          scan_in_, fed.flops[map_->slots[0].flop_index] & 1));
    for (size_t k = 0; k < ports_.size(); ++k) {
      const MemPort& mp = map_->mem_ports[k];
      HS_RETURN_IF_ERROR(sim_->PokeInput(ports_[k].addr, mp.depth - 1));
      if (incoming != nullptr)
        HS_RETURN_IF_ERROR(sim_->PokeInput(
            ports_[k].wdata, incoming->memories[mp.memory][mp.depth - 1]));
    }
    HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 0));
    return old;
  }

  // Chain position p holds: slot s bit j, where p = offset(s) + j.
  // To land desired bit v_p at position p we must feed v_{n-1-t} at shift
  // cycle t; symmetrically scan_out at cycle t emits old bit n-1-t. A
  // loopback pass feeds each captured bit straight back, so after exactly
  // n cycles every bit has made a full round trip.
  std::vector<uint8_t> feed(n), captured(n);
  if (incoming != nullptr) {
    unsigned p = 0;
    for (const auto& slot : map_->slots) {
      uint64_t v = incoming->flops[slot.flop_index];
      for (unsigned j = 0; j < slot.width; ++j, ++p)
        feed[n - 1 - p] = static_cast<uint8_t>((v >> j) & 1);
    }
  }

  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 1));
  for (unsigned t = 0; t < n; ++t) {
    captured[t] = static_cast<uint8_t>(sim_->PeekId(scan_out_));
    HS_RETURN_IF_ERROR(sim_->PokeInput(
        scan_in_, incoming != nullptr ? feed[t] : captured[t]));
    sim_->Tick(1);
  }
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_enable_, 0));

  {
    unsigned p = 0;
    for (const auto& slot : map_->slots) {
      uint64_t v = 0;
      for (unsigned j = 0; j < slot.width; ++j, ++p)
        if (captured[n - 1 - p]) v |= uint64_t{1} << j;
      old.flops[slot.flop_index] = v;
    }
  }

  // Memories: word-at-a-time through the test port, reading the old word
  // and, when a new state is shifting in, writing its word in the same
  // cycle. scan_hold freezes the chained registers while the clock ticks
  // for the word-serial phase.
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_hold_, 1));
  for (size_t k = 0; k < ports_.size(); ++k) {
    const MemPort& mp = map_->mem_ports[k];
    const Port& port = ports_[k];
    HS_RETURN_IF_ERROR(sim_->PokeInput(port.en, 1));
    if (incoming != nullptr) HS_RETURN_IF_ERROR(sim_->PokeInput(port.wen, 1));
    for (unsigned w = 0; w < mp.depth; ++w) {
      HS_RETURN_IF_ERROR(sim_->PokeInput(port.addr, w));
      old.memories[mp.memory][w] = sim_->PeekId(port.rdata);
      if (incoming != nullptr)
        HS_RETURN_IF_ERROR(
            sim_->PokeInput(port.wdata, incoming->memories[mp.memory][w]));
      sim_->Tick(1);
    }
    if (incoming != nullptr) HS_RETURN_IF_ERROR(sim_->PokeInput(port.wen, 0));
    HS_RETURN_IF_ERROR(sim_->PokeInput(port.en, 0));
  }
  HS_RETURN_IF_ERROR(sim_->PokeInput(scan_hold_, 0));
  return old;
}

Result<HardwareState> ScanController::SaveRestore(
    const HardwareState& new_state) {
  return Pass(&new_state, /*bit_serial=*/false);
}

Result<HardwareState> ScanController::Save() {
  return Pass(nullptr, /*bit_serial=*/false);
}

Status ScanController::Restore(const HardwareState& state) {
  return Pass(&state, /*bit_serial=*/false).status();
}

}  // namespace hardsnap::scanchain
