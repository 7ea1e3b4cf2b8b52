// RV32IM instruction semantics, written once for both execution domains.
//
// The paper's VM is Inception, built on KLEE, where concrete values are
// constant expressions inside the same interpreter that forks on symbolic
// ones. Here one template plays that part: vm::Cpu instantiates it over
// uint32_t and symex::Executor over solver terms. It writes once:
//   - operand selection, rd/x0 handling and the pc update;
//   - branch, jal and jalr control flow;
//   - the memory-map router: the host console and exit windows, the MMIO
//     window, and RAM/ROM bounds on every byte of an access;
//   - interrupt entry, the CSR file, mret and wfi.
//
// What stays per domain lives in the Hart each driver passes in:
//   - the arithmetic over Hart::Value. ops() has the interface of
//     solver::BvContext: the executor hands over its context, the CPU its
//     native operators. The hart itself adds div and rem (the executor's
//     are magnitude-based) and sub-word sign or zero extension. So the CPU
//     remains an independent reference that the differential test holds
//     the symbolic arithmetic to;
//   - Concrete(): a value crossing into the concrete domain (an address, a
//     CSR or MMIO datum, the console and exit windows); the executor
//     concretizes it and may fork;
//   - Branch(): the executor forks on a symbolic condition;
//   - Jump(): a taken control transfer; the CPU logs a coverage edge;
//   - RAM/ROM byte Load and Store, MmioRead/MmioWrite, IrqVector and
//     RunHardware;
//   - how the hart stops: Bug, Exit, Wait, and the failures of the calls
//     above, each recorded in the hart's own outcome. A hart call that can
//     fail returns false once it has recorded why.
//
// Terms are hash-consed, so the symbolic side's term ids, and with them its
// solver models and test cases, follow the order of the hart calls below.
// Change that order only on purpose.
#pragma once

#include <bit>
#include <cstdint>

#include "vm/isa.h"
#include "vm/memmap.h"

namespace hardsnap::vm {

enum class Flow : uint8_t {
  kRetired,  // the instruction completed
  kWaiting,  // wfi found no interrupt pending: retry at the same pc
  kStopped,  // the hart stopped: exit, bug, wait, or a hardware or solver
             // failure, as its outcome says
};

// Enters the lowest pending interrupt line when interrupts are enabled and
// no handler is running. Returns whether it did.
template <class Hart>
bool ServeInterrupt(Hart& h) {
  MachineCsrs& csr = h.csrs();
  if (csr.in_interrupt || (csr.mstatus & kMstatusMie) == 0) return false;
  const uint32_t pending = h.IrqVector();
  if (pending == 0) return false;
  csr.mepc = h.pc();
  csr.mcause = 0x80000000u | static_cast<uint32_t>(std::countr_zero(pending));
  csr.mstatus = (csr.mstatus | kMstatusMpie) & ~kMstatusMie;
  csr.in_interrupt = true;
  h.Jump(csr.mtvec);
  return true;
}

namespace internal {

// Loads and stores. The address crosses into the concrete domain, then the
// memory map routes the access.
template <class Hart>
Flow ExecuteMemory(Hart& h, const Instruction& in, typename Hart::Value base,
                   typename Hart::Value data) {
  const OpcodeInfo& row = Info(in.op);
  const unsigned bytes = 1u << (row.funct3 & 3);
  const uint32_t last = bytes - 1;
  auto&& ops = h.ops();
  uint32_t addr = 0;
  if (!h.Concrete(ops.Add(base, ops.Const(static_cast<uint32_t>(in.imm), 32)),
                  "memory address", &addr))
    return Flow::kStopped;

  if (row.format == Format::kStore) {
    uint32_t v = 0;
    if (addr == kHostPutchar) {
      if (!h.Concrete(data, "console byte", &v)) return Flow::kStopped;
      h.Putchar(static_cast<char>(v & 0xff));
    } else if (addr == kHostExit) {
      if (h.Concrete(data, "exit code", &v)) h.Exit(v);
      return Flow::kStopped;
    } else if (InMmio(addr)) {
      if (!h.Concrete(data, "MMIO store data", &v) ||
          !h.MmioWrite(addr & 0xffff, v))
        return Flow::kStopped;
    } else if (InRam(addr) && InRam(addr + last)) {
      h.Store(addr, data, bytes);
    } else {
      h.Bug("out-of-bounds store", "store of %u bytes to 0x%08x", bytes,
            addr);
      return Flow::kStopped;
    }
    h.SetPc(h.pc() + 4);
    return Flow::kRetired;
  }

  typename Hart::Value v{};
  if (InMmio(addr)) {
    if (!h.MmioRead(addr & 0xffff, &v)) return Flow::kStopped;
    if (bytes < 4) v = ops.Extract(v, 8 * bytes - 1, 0);
  } else if ((InRam(addr) && InRam(addr + last)) ||
             (InRom(addr) && InRom(addr + last))) {
    v = h.Load(addr, bytes);
  } else {
    h.Bug("out-of-bounds load", "load of %u bytes from 0x%08x", bytes, addr);
    return Flow::kStopped;
  }
  if (bytes < 4) v = h.Widen(v, bytes, (row.funct3 & 4) == 0);
  if (in.rd != 0) h.SetReg(in.rd, v);
  h.SetPc(h.pc() + 4);
  return Flow::kRetired;
}

}  // namespace internal

// Executes one decoded instruction on the hart.
template <class Hart>
Flow Execute(Hart& h, const Instruction& in) {
  using Value = typename Hart::Value;
  auto&& ops = h.ops();
  const uint32_t pc = h.pc();
  const uint32_t next = pc + 4;
  const uint32_t imm = static_cast<uint32_t>(in.imm);
  const Value a = h.Reg(in.rs1);
  const Value b = h.Reg(in.rs2);
  // x0 stays zero, but the value is built either way.
  auto set_rd = [&](Value v) {
    if (in.rd != 0) h.SetReg(in.rd, v);
  };
  auto retire = [&](Value v) {
    set_rd(v);
    h.SetPc(next);
    return Flow::kRetired;
  };
  auto branch = [&](auto cond) {
    return h.Branch(cond, pc + imm, next) ? Flow::kRetired : Flow::kStopped;
  };
  auto word = [&](uint32_t v) { return ops.Const(v, 32); };
  auto bit = [&](auto cond) { return ops.Zext(cond, 32); };
  auto shamt = [&](Value amount) { return ops.And(amount, word(31)); };

  switch (in.op) {
    case Opcode::kLui: return retire(word(imm));
    case Opcode::kAuipc: return retire(word(pc + imm));
    case Opcode::kJal:
      set_rd(word(next));
      h.Jump(pc + imm);
      return Flow::kRetired;
    case Opcode::kJalr: {
      const Value mask = word(~1u);
      uint32_t target = 0;
      if (!h.Concrete(ops.And(ops.Add(a, word(imm)), mask), "jalr target",
                      &target))
        return Flow::kStopped;
      set_rd(word(next));
      h.Jump(target);
      return Flow::kRetired;
    }
    case Opcode::kBeq: return branch(ops.Eq(a, b));
    case Opcode::kBne: return branch(ops.Ne(a, b));
    case Opcode::kBlt: return branch(ops.Slt(a, b));
    case Opcode::kBge: return branch(ops.Sge(a, b));
    case Opcode::kBltu: return branch(ops.Ult(a, b));
    case Opcode::kBgeu: return branch(ops.Uge(a, b));
    case Opcode::kLb: case Opcode::kLh: case Opcode::kLw:
    case Opcode::kLbu: case Opcode::kLhu:
    case Opcode::kSb: case Opcode::kSh: case Opcode::kSw:
      return internal::ExecuteMemory(h, in, a, b);
    case Opcode::kAddi: return retire(ops.Add(a, word(imm)));
    case Opcode::kSlti: return retire(bit(ops.Slt(a, word(imm))));
    case Opcode::kSltiu: return retire(bit(ops.Ult(a, word(imm))));
    case Opcode::kXori: return retire(ops.Xor(a, word(imm)));
    case Opcode::kOri: return retire(ops.Or(a, word(imm)));
    case Opcode::kAndi: return retire(ops.And(a, word(imm)));
    case Opcode::kSlli: return retire(ops.Shl(a, word(imm & 31)));
    case Opcode::kSrli: return retire(ops.Lshr(a, word(imm & 31)));
    case Opcode::kSrai: return retire(ops.Ashr(a, word(imm & 31)));
    case Opcode::kAdd: return retire(ops.Add(a, b));
    case Opcode::kSub: return retire(ops.Sub(a, b));
    case Opcode::kSll: return retire(ops.Shl(a, shamt(b)));
    case Opcode::kSlt: return retire(bit(ops.Slt(a, b)));
    case Opcode::kSltu: return retire(bit(ops.Ult(a, b)));
    case Opcode::kXor: return retire(ops.Xor(a, b));
    case Opcode::kSrl: return retire(ops.Lshr(a, shamt(b)));
    case Opcode::kSra: return retire(ops.Ashr(a, shamt(b)));
    case Opcode::kOr: return retire(ops.Or(a, b));
    case Opcode::kAnd: return retire(ops.And(a, b));
    case Opcode::kMul: return retire(ops.Mul(a, b));
    case Opcode::kMulh: case Opcode::kMulhsu: case Opcode::kMulhu: {
      // The high word of the 64-bit product of the widened operands.
      const bool signed_a = in.op != Opcode::kMulhu;
      const auto x = signed_a ? ops.Sext(a, 64) : ops.Zext(a, 64);
      const auto y = in.op == Opcode::kMulh ? ops.Sext(b, 64) : ops.Zext(b, 64);
      return retire(ops.Extract(ops.Mul(x, y), 63, 32));
    }
    case Opcode::kDiv: return retire(h.Div(a, b));
    case Opcode::kDivu: return retire(ops.Udiv(a, b));
    case Opcode::kRem: return retire(h.Rem(a, b));
    case Opcode::kRemu: return retire(ops.Urem(a, b));
    case Opcode::kCsrrw: case Opcode::kCsrrs: case Opcode::kCsrrc: {
      uint32_t* csr = h.csrs().Find(in.csr);
      if (csr == nullptr) {
        h.Bug("unknown CSR", "%u", in.csr);
        return Flow::kStopped;
      }
      const uint32_t old = *csr;
      uint32_t v = 0;
      if (!h.Concrete(a, "CSR write value", &v)) return Flow::kStopped;
      if (in.op == Opcode::kCsrrw)
        *csr = v;
      else if (in.rs1 != 0)
        *csr = in.op == Opcode::kCsrrs ? old | v : old & ~v;
      return retire(word(old));
    }
    case Opcode::kEcall:  // benign: the firmware corpus uses MMIO hypercalls
    case Opcode::kFence:
      h.SetPc(next);
      return Flow::kRetired;
    case Opcode::kEbreak:
      h.Bug("ebreak", "firmware assertion failure (%s)", "ebreak");
      return Flow::kStopped;
    case Opcode::kMret: {
      MachineCsrs& csr = h.csrs();
      if (csr.mstatus & kMstatusMpie) csr.mstatus |= kMstatusMie;
      csr.in_interrupt = false;
      h.Jump(csr.mepc);
      return Flow::kRetired;
    }
    case Opcode::kWfi:
      // Run the hardware until an interrupt is pending, retrying at the
      // same pc. With interrupts masked none will ever be taken: stop.
      if (h.IrqVector() == 0) {
        if (!h.RunHardware(16)) return Flow::kStopped;
        if (h.IrqVector() == 0) {
          if (h.csrs().mstatus & kMstatusMie) return Flow::kWaiting;
          h.Wait("wfi with interrupts masked");
          return Flow::kStopped;
        }
      }
      h.SetPc(next);
      return Flow::kRetired;
  }
  return Flow::kStopped;  // not reached: the switch covers every opcode
}

}  // namespace hardsnap::vm
