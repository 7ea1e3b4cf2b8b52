#include "symex/executor.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/logging.h"
#include "vm/memmap.h"

namespace hardsnap::symex {

using solver::BvModel;
using solver::BvResult;
using solver::TermId;
using vm::Instruction;
using vm::Opcode;

const char* ConsistencyModeName(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kHardSnap: return "hardsnap";
    case ConsistencyMode::kNaiveConsistent: return "naive-consistent";
    case ConsistencyMode::kNaiveInconsistent: return "naive-inconsistent";
  }
  return "?";
}

std::string Report::Summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "paths=%llu (exited %llu) forks=%llu instr=%llu bugs=%zu "
                "ctx-switches=%llu reboots=%llu replayed=%llu irqs=%llu "
                "hw-time=%s replay-overhead=%s snap-bytes=%llu dedup=%.2f",
                static_cast<unsigned long long>(paths_completed),
                static_cast<unsigned long long>(paths_exited),
                static_cast<unsigned long long>(forks),
                static_cast<unsigned long long>(instructions), bugs.size(),
                static_cast<unsigned long long>(hw_context_switches),
                static_cast<unsigned long long>(reboots),
                static_cast<unsigned long long>(replayed_instructions),
                static_cast<unsigned long long>(interrupts_served),
                analysis_hw_time.ToString().c_str(),
                replay_overhead.ToString().c_str(),
                static_cast<unsigned long long>(snapshot_bytes_copied),
                snapshot_dedup_ratio);
  return buf;
}

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string Report::ToJson() const {
  std::string j = "{";
  auto num = [&j](const char* key, uint64_t v, bool comma = true) {
    j += std::string("\"") + key + "\":" + std::to_string(v);
    if (comma) j += ",";
  };
  num("paths_completed", paths_completed);
  num("paths_exited", paths_exited);
  num("forks", forks);
  num("instructions", instructions);
  num("interrupts_served", interrupts_served);
  num("hw_context_switches", hw_context_switches);
  num("replayed_instructions", replayed_instructions);
  num("reboots", reboots);
  num("concretizations", concretizations);
  num("solver_queries", solver_queries);
  num("analysis_hw_time_ps", static_cast<uint64_t>(analysis_hw_time.picos()));
  num("covered_pcs", covered_pcs);
  num("snapshot_bytes_copied", snapshot_bytes_copied);
  num("snapshot_bytes_shared", snapshot_bytes_shared);
  num("link_retransmits", link.retransmits);
  num("link_crc_rejects", link.crc_rejects);
  num("link_deadline_breaches", link.deadline_breaches);
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", snapshot_dedup_ratio);
    j += std::string("\"snapshot_dedup_ratio\":") + buf + ",";
  }
  j += "\"bugs\":[";
  for (size_t i = 0; i < bugs.size(); ++i) {
    if (i) j += ",";
    j += "{\"pc\":" + std::to_string(bugs[i].pc) + ",\"kind\":\"" +
         JsonEscape(bugs[i].kind) + "\",\"detail\":\"" +
         JsonEscape(bugs[i].detail) + "\",\"inputs\":{";
    bool first = true;
    for (const auto& [name, value] : bugs[i].test_case.inputs) {
      if (!first) j += ",";
      first = false;
      j += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
    }
    j += "}}";
  }
  j += "],\"test_cases\":" + std::to_string(test_cases.size());
  j += "}";
  return j;
}

Executor::Executor(bus::HardwareTarget* target, ExecOptions options)
    : target_(target),
      options_(options),
      hw_(target, options.use_device_slots, options.use_delta_snapshots,
          options.max_store_bytes),
      solver_(&ctx_) {
  searcher_ = MakeSearcher(options_.search, options_.seed);
  initial_ = std::make_unique<State>();
  initial_->id = next_state_id_++;
  for (auto& r : initial_->regs) r = ctx_.Const(0, 32);
  initial_->regs[2] = ctx_.Const(vm::kStackTop - 16, 32);  // sp
}

Status Executor::LoadFirmware(const vm::FirmwareImage& image) {
  if (image.base != vm::kRomBase)
    return InvalidArgument("firmware must be based at ROM");
  if (image.bytes.size() > vm::kRomSize)
    return InvalidArgument("firmware larger than ROM");
  image_ = image;
  initial_->pc = image.SymbolOr("_start", vm::kRomBase);
  return Status::Ok();
}

TermId Executor::MakeSymbolicRegister(unsigned reg, const std::string& name) {
  HS_CHECK(reg >= 1 && reg < 32);
  TermId var = ctx_.Var(name, 32);
  initial_->regs[reg] = var;
  initial_->inputs.push_back(SymbolicInput{name, var, 4});
  return var;
}

Status Executor::MakeSymbolicRegion(uint32_t addr, unsigned bytes,
                                    const std::string& name) {
  for (unsigned i = 0; i < bytes; ++i) {
    if (!vm::InRam(addr + i) && !vm::InRom(addr + i))
      return OutOfRange("symbolic region outside RAM/ROM");
    TermId var = ctx_.Var(name + "[" + std::to_string(i) + "]", 8);
    initial_->mem[addr + i] = var;
    initial_->inputs.push_back(
        SymbolicInput{name + "[" + std::to_string(i) + "]", var, 1});
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Memory.

TermId Executor::LoadByte(State& s, uint32_t addr) {
  auto it = s.mem.find(addr);
  if (it != s.mem.end()) return it->second;
  if (vm::InRom(addr)) {
    const uint32_t off = addr - image_.base;
    const uint8_t byte = off < image_.bytes.size() ? image_.bytes[off] : 0;
    return ctx_.Const(byte, 8);
  }
  return ctx_.Const(0, 8);  // RAM is zero-initialized
}

void Executor::StoreByte(State& s, uint32_t addr, TermId value) {
  s.mem[addr] = value;
}

Result<TermId> Executor::LoadWidth(State& s, uint32_t addr, unsigned bytes) {
  TermId acc = LoadByte(s, addr);
  for (unsigned i = 1; i < bytes; ++i)
    acc = ctx_.Concat(LoadByte(s, addr + i), acc);  // little endian
  return acc;
}

Result<uint32_t> Executor::FetchWord(State& s) {
  if (!vm::InRom(s.pc) || (s.pc & 3) != 0)
    return OutOfRange("instruction fetch outside ROM");
  // Instructions are immutable concrete bytes unless firmware self-
  // modifies (overlay would make them symbolic; reject that).
  auto word = LoadWidth(s, s.pc, 4);
  if (!word.ok()) return word.status();
  if (!ctx_.IsConst(word.value()))
    return FailedPrecondition("symbolic instruction fetch");
  return static_cast<uint32_t>(ctx_.term(word.value()).value);
}

// ---------------------------------------------------------------------------
// Solver plumbing.

Result<bool> Executor::Feasible(State& s, TermId extra) {
  std::vector<TermId> as = s.constraints;
  as.push_back(extra);
  auto r = solver_.Check(as);
  if (!r.ok()) return r.status();
  return r.value() == BvResult::kSat;
}

Result<uint64_t> Executor::SolveForValue(State& s, TermId value) {
  // Bind a fresh variable to the value and read it from the model.
  TermId probe = ctx_.Var("__probe", ctx_.WidthOf(value));
  std::vector<TermId> as = s.constraints;
  as.push_back(ctx_.Eq(probe, value));
  BvModel model;
  auto r = solver_.Check(as, &model);
  if (!r.ok()) return r.status();
  if (r.value() == BvResult::kUnsat)
    return Internal("path condition became unsatisfiable");
  return model.values.count(probe) ? model.values[probe] : 0;
}

TestCase Executor::SolveTestCase(State& s, const std::string& origin) {
  TestCase tc;
  tc.origin = origin;
  BvModel model;
  auto r = solver_.Check(s.constraints, &model);
  if (!r.ok() || r.value() == BvResult::kUnsat) return tc;
  for (const auto& input : s.inputs) {
    auto it = model.values.find(input.var);
    tc.inputs[input.name] = it == model.values.end() ? 0 : it->second;
  }
  return tc;
}

// ---------------------------------------------------------------------------
// Hardware context switch (Algorithm 1).

Status Executor::HwContextSwitch(State* previous, State& next,
                                 Report* report) {
  switch (options_.mode) {
    case ConsistencyMode::kHardSnap:
      ++report->hw_context_switches;
      break;
    case ConsistencyMode::kNaiveConsistent:
      // Reboot + re-execute the whole prefix of `next`. Correct hardware
      // content is obtained from the snapshot; the virtual-time cost of
      // the reboot and replay is charged explicitly (see header).
      ++report->reboots;
      report->replayed_instructions += next.icount;
      replay_clock_.Advance(options_.reboot_cost +
                            options_.replay_cost_per_instruction *
                                static_cast<int64_t>(next.icount));
      break;
    case ConsistencyMode::kNaiveInconsistent:
      // Hardware-in-the-loop: nothing saved, nothing restored. All states
      // mutate the same live device.
      return Status::Ok();
  }
  if (previous && previous->status == StateStatus::kRunning) {
    HS_RETURN_IF_ERROR(hw_.Save(&previous->hw));
  }
  auto rung = hw_.Restore(next.hw);
  if (!rung.ok()) return rung.status();
  // A state without a snapshot starts from power-on hardware.
  if (rung.value() == snapshot::HwStateTracker::Rung::kReset)
    ++report->reboots;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// State management.

State* Executor::AddState(std::unique_ptr<State> state) {
  State* raw = state.get();
  states_.push_back(std::move(state));
  searcher_->Add(raw);
  return raw;
}

void Executor::RemoveState(State* state) {
  searcher_->Remove(state);
  hw_.Release(&state->hw);
}

void Executor::FlagBug(State& s, const std::string& kind,
                       const std::string& detail, Report* report) {
  Bug bug;
  bug.pc = s.pc;
  bug.kind = kind;
  bug.detail = detail;
  bug.test_case = SolveTestCase(s, "bug: " + kind);
  report->bugs.push_back(std::move(bug));
  s.status = StateStatus::kBug;
  s.stop_reason = kind + (detail.empty() ? "" : (": " + detail));
}

void Executor::FinishPath(State& s, Report* report) {
  ++report->paths_completed;
  if (s.status == StateStatus::kExited) {
    ++report->paths_exited;
    report->exit_codes.push_back(s.exit_code);
  }
  report->console += s.console;
  if (!s.inputs.empty()) {
    report->test_cases.push_back(SolveTestCase(
        s, s.status == StateStatus::kExited
               ? "exit(" + std::to_string(s.exit_code) + ")"
               : s.stop_reason));
  }
}

// ---------------------------------------------------------------------------
// Forking and concretization.

Status Executor::ForkOnCondition(State& s, TermId cond, uint32_t taken_pc,
                                 uint32_t fallthrough_pc, Report* report) {
  if (ctx_.IsConst(cond)) {
    s.pc = ctx_.term(cond).value ? taken_pc : fallthrough_pc;
    return Status::Ok();
  }
  auto taken_ok = Feasible(s, cond);
  if (!taken_ok.ok()) return taken_ok.status();
  auto fall_ok = Feasible(s, ctx_.BoolNot(cond));
  if (!fall_ok.ok()) return fall_ok.status();
  report->solver_queries += 2;

  if (taken_ok.value() && !fall_ok.value()) {
    s.constraints.push_back(cond);
    s.pc = taken_pc;
    return Status::Ok();
  }
  if (!taken_ok.value() && fall_ok.value()) {
    s.constraints.push_back(ctx_.BoolNot(cond));
    s.pc = fallthrough_pc;
    return Status::Ok();
  }
  if (!taken_ok.value() && !fall_ok.value())
    return Internal("both branch directions infeasible");

  // Real fork. The new state takes the branch; the current state falls
  // through (so the searcher's notion of "previous" stays coherent).
  if (states_.size() >= options_.max_states) {
    // State cap: drop the taken side, keep going.
    s.constraints.push_back(ctx_.BoolNot(cond));
    s.pc = fallthrough_pc;
    return Status::Ok();
  }
  ++report->forks;
  auto forked = s.Fork();
  forked->id = next_state_id_++;
  forked->depth = s.depth + 1;
  forked->constraints.push_back(cond);
  forked->pc = taken_pc;

  // Paper: "resulting state flows with a unique and non-shared hardware
  // snapshot" — capture the live hardware for the forked state.
  if (options_.mode != ConsistencyMode::kNaiveInconsistent) {
    HS_RETURN_IF_ERROR(hw_.Save(&forked->hw));
  }
  AddState(std::move(forked));

  s.constraints.push_back(ctx_.BoolNot(cond));
  s.pc = fallthrough_pc;
  return Status::Ok();
}

Result<uint32_t> Executor::Concretize(State& s, TermId value,
                                      const char* what, Report* report) {
  if (ctx_.IsConst(value))
    return static_cast<uint32_t>(ctx_.term(value).value);
  ++report->concretizations;
  auto v = SolveForValue(s, value);
  if (!v.ok()) return v.status();
  ++report->solver_queries;
  const uint32_t chosen = static_cast<uint32_t>(v.value());

  if (options_.concretization == ConcretizationPolicy::kAllValues) {
    // Fork alternatives: for each OTHER satisfying value (bounded), spawn
    // a state constrained to it.
    unsigned spawned = 0;
    TermId exclude = ctx_.Ne(value, ctx_.Const(chosen, ctx_.WidthOf(value)));
    std::vector<TermId> as = s.constraints;
    as.push_back(exclude);
    while (spawned + 1 < options_.max_concretization_fanout &&
           states_.size() < options_.max_states) {
      BvModel model;
      auto r = solver_.Check(as, &model);
      if (!r.ok()) return r.status();
      ++report->solver_queries;
      if (r.value() == BvResult::kUnsat) break;
      // Evaluate the boundary value under this model.
      std::map<TermId, uint64_t> env = model.values;
      const uint32_t alt =
          static_cast<uint32_t>(solver::EvalTerm(ctx_, value, env));
      auto forked = s.Fork();
      forked->id = next_state_id_++;
      forked->depth = s.depth + 1;
      forked->constraints.push_back(
          ctx_.Eq(value, ctx_.Const(alt, ctx_.WidthOf(value))));
      if (options_.mode != ConsistencyMode::kNaiveInconsistent) {
        HS_RETURN_IF_ERROR(hw_.Save(&forked->hw));
      }
      ++report->forks;
      AddState(std::move(forked));
      ++spawned;
      as.push_back(ctx_.Ne(value, ctx_.Const(alt, ctx_.WidthOf(value))));
    }
  }

  LogDebug(std::string("concretized ") + what + " to " +
           std::to_string(chosen));
  s.constraints.push_back(
      ctx_.Eq(value, ctx_.Const(chosen, ctx_.WidthOf(value))));
  return chosen;
}

// ---------------------------------------------------------------------------
// Interrupts.

void Executor::ServePendingInterrupt(State& s, Report* report) {
  if (s.in_interrupt || (s.mstatus & vm::kMstatusMie) == 0) return;
  const uint32_t pending = target_->IrqVector();
  if (pending == 0) return;
  unsigned line = 0;
  while (((pending >> line) & 1) == 0) ++line;
  s.mepc = s.pc;
  s.mcause = 0x80000000u | line;
  s.pc = s.mtvec;
  if (s.mstatus & vm::kMstatusMie) s.mstatus |= vm::kMstatusMpie;
  s.mstatus &= ~vm::kMstatusMie;
  s.in_interrupt = true;
  ++report->interrupts_served;
}

// ---------------------------------------------------------------------------
// Instruction execution.

Status Executor::ExecuteInstruction(State& s, Report* report) {
  auto word = FetchWord(s);
  if (!word.ok()) {
    FlagBug(s, "bad instruction fetch", word.status().message(), report);
    return Status::Ok();
  }
  auto decoded = vm::Decode(word.value());
  if (!decoded.ok()) {
    FlagBug(s, "illegal instruction", decoded.status().message(), report);
    return Status::Ok();
  }
  const Instruction& in = decoded.value();
  const uint32_t next_pc = s.pc + 4;
  covered_pcs_.insert(s.pc);
  ++s.icount;
  ++report->instructions;

  auto rs1 = [&] { return s.regs[in.rs1]; };
  auto rs2 = [&] { return s.regs[in.rs2]; };
  auto set_rd = [&](TermId v) {
    if (in.rd != 0) s.regs[in.rd] = v;
  };
  auto imm32 = [&] {
    return ctx_.Const(static_cast<uint32_t>(in.imm), 32);
  };
  auto shamt = [&](TermId amount) {
    return ctx_.And(amount, ctx_.Const(31, 32));
  };

  switch (in.op) {
    case Opcode::kLui:
      set_rd(imm32());
      s.pc = next_pc;
      break;
    case Opcode::kAuipc:
      set_rd(ctx_.Const(s.pc + static_cast<uint32_t>(in.imm), 32));
      s.pc = next_pc;
      break;
    case Opcode::kJal:
      set_rd(ctx_.Const(next_pc, 32));
      s.pc = s.pc + static_cast<uint32_t>(in.imm);
      break;
    case Opcode::kJalr: {
      TermId t = ctx_.And(ctx_.Add(rs1(), imm32()),
                          ctx_.Const(~uint32_t{1}, 32));
      auto target_pc = Concretize(s, t, "jalr target", report);
      if (!target_pc.ok()) return target_pc.status();
      set_rd(ctx_.Const(next_pc, 32));
      s.pc = target_pc.value();
      break;
    }
    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
      TermId cond;
      switch (in.op) {
        case Opcode::kBeq: cond = ctx_.Eq(rs1(), rs2()); break;
        case Opcode::kBne: cond = ctx_.Ne(rs1(), rs2()); break;
        case Opcode::kBlt: cond = ctx_.Slt(rs1(), rs2()); break;
        case Opcode::kBge: cond = ctx_.Sge(rs1(), rs2()); break;
        case Opcode::kBltu: cond = ctx_.Ult(rs1(), rs2()); break;
        default: cond = ctx_.Uge(rs1(), rs2()); break;
      }
      return ForkOnCondition(s, cond, s.pc + static_cast<uint32_t>(in.imm),
                             next_pc, report);
    }
    case Opcode::kLb: case Opcode::kLh: case Opcode::kLw:
    case Opcode::kLbu: case Opcode::kLhu:
    case Opcode::kSb: case Opcode::kSh: case Opcode::kSw:
      return ExecMemOp(s, in, report);
    case Opcode::kAddi: set_rd(ctx_.Add(rs1(), imm32())); s.pc = next_pc; break;
    case Opcode::kSlti:
      set_rd(ctx_.Zext(ctx_.Slt(rs1(), imm32()), 32));
      s.pc = next_pc;
      break;
    case Opcode::kSltiu:
      set_rd(ctx_.Zext(ctx_.Ult(rs1(), imm32()), 32));
      s.pc = next_pc;
      break;
    case Opcode::kXori: set_rd(ctx_.Xor(rs1(), imm32())); s.pc = next_pc; break;
    case Opcode::kOri: set_rd(ctx_.Or(rs1(), imm32())); s.pc = next_pc; break;
    case Opcode::kAndi: set_rd(ctx_.And(rs1(), imm32())); s.pc = next_pc; break;
    case Opcode::kSlli:
      set_rd(ctx_.Shl(rs1(), ctx_.Const(in.imm & 31, 32)));
      s.pc = next_pc;
      break;
    case Opcode::kSrli:
      set_rd(ctx_.Lshr(rs1(), ctx_.Const(in.imm & 31, 32)));
      s.pc = next_pc;
      break;
    case Opcode::kSrai:
      set_rd(ctx_.Ashr(rs1(), ctx_.Const(in.imm & 31, 32)));
      s.pc = next_pc;
      break;
    case Opcode::kAdd: set_rd(ctx_.Add(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kSub: set_rd(ctx_.Sub(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kSll: set_rd(ctx_.Shl(rs1(), shamt(rs2()))); s.pc = next_pc; break;
    case Opcode::kSlt:
      set_rd(ctx_.Zext(ctx_.Slt(rs1(), rs2()), 32));
      s.pc = next_pc;
      break;
    case Opcode::kSltu:
      set_rd(ctx_.Zext(ctx_.Ult(rs1(), rs2()), 32));
      s.pc = next_pc;
      break;
    case Opcode::kXor: set_rd(ctx_.Xor(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kSrl: set_rd(ctx_.Lshr(rs1(), shamt(rs2()))); s.pc = next_pc; break;
    case Opcode::kSra: set_rd(ctx_.Ashr(rs1(), shamt(rs2()))); s.pc = next_pc; break;
    case Opcode::kOr: set_rd(ctx_.Or(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kAnd: set_rd(ctx_.And(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kMul: set_rd(ctx_.Mul(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kMulh: {
      TermId a = ctx_.Sext(rs1(), 64), b = ctx_.Sext(rs2(), 64);
      set_rd(ctx_.Extract(ctx_.Mul(a, b), 63, 32));
      s.pc = next_pc;
      break;
    }
    case Opcode::kMulhu: {
      TermId a = ctx_.Zext(rs1(), 64), b = ctx_.Zext(rs2(), 64);
      set_rd(ctx_.Extract(ctx_.Mul(a, b), 63, 32));
      s.pc = next_pc;
      break;
    }
    case Opcode::kMulhsu: {
      TermId a = ctx_.Sext(rs1(), 64), b = ctx_.Zext(rs2(), 64);
      set_rd(ctx_.Extract(ctx_.Mul(a, b), 63, 32));
      s.pc = next_pc;
      break;
    }
    case Opcode::kDivu: set_rd(ctx_.Udiv(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kRemu: set_rd(ctx_.Urem(rs1(), rs2())); s.pc = next_pc; break;
    case Opcode::kDiv: {
      // Signed division via magnitudes (RISC-V: overflow x8000.../-1 wraps,
      // division by zero yields -1).
      TermId a = rs1(), b = rs2();
      TermId zero = ctx_.Const(0, 32);
      TermId a_neg = ctx_.Slt(a, zero), b_neg = ctx_.Slt(b, zero);
      TermId abs_a = ctx_.Ite(a_neg, ctx_.Neg(a), a);
      TermId abs_b = ctx_.Ite(b_neg, ctx_.Neg(b), b);
      TermId q = ctx_.Udiv(abs_a, abs_b);
      TermId q_neg = ctx_.Xor(a_neg, b_neg);
      TermId signed_q = ctx_.Ite(q_neg, ctx_.Neg(q), q);
      set_rd(ctx_.Ite(ctx_.Eq(b, zero), ctx_.Const(~0u, 32), signed_q));
      s.pc = next_pc;
      break;
    }
    case Opcode::kRem: {
      TermId a = rs1(), b = rs2();
      TermId zero = ctx_.Const(0, 32);
      TermId a_neg = ctx_.Slt(a, zero), b_neg = ctx_.Slt(b, zero);
      TermId abs_a = ctx_.Ite(a_neg, ctx_.Neg(a), a);
      TermId abs_b = ctx_.Ite(b_neg, ctx_.Neg(b), b);
      TermId r = ctx_.Urem(abs_a, abs_b);
      TermId signed_r = ctx_.Ite(a_neg, ctx_.Neg(r), r);
      set_rd(ctx_.Ite(ctx_.Eq(b, zero), a, signed_r));
      s.pc = next_pc;
      break;
    }
    case Opcode::kCsrrw: case Opcode::kCsrrs: case Opcode::kCsrrc: {
      uint32_t* csr = nullptr;
      switch (in.csr) {
        case vm::kCsrMstatus: csr = &s.mstatus; break;
        case vm::kCsrMtvec: csr = &s.mtvec; break;
        case vm::kCsrMepc: csr = &s.mepc; break;
        case vm::kCsrMcause: csr = &s.mcause; break;
        default:
          FlagBug(s, "unknown CSR", std::to_string(in.csr), report);
          return Status::Ok();
      }
      const uint32_t old = *csr;
      auto wv = Concretize(s, s.regs[in.rs1], "CSR write value", report);
      if (!wv.ok()) return wv.status();
      switch (in.op) {
        case Opcode::kCsrrw: *csr = wv.value(); break;
        case Opcode::kCsrrs: if (in.rs1 != 0) *csr = old | wv.value(); break;
        default: if (in.rs1 != 0) *csr = old & ~wv.value(); break;
      }
      set_rd(ctx_.Const(old, 32));
      s.pc = next_pc;
      break;
    }
    case Opcode::kEcall:
      // Benign environment call: treated as a no-op trap (firmware corpus
      // uses MMIO hypercalls instead).
      s.pc = next_pc;
      break;
    case Opcode::kEbreak:
      FlagBug(s, "ebreak", "firmware assertion failure (ebreak)", report);
      return Status::Ok();
    case Opcode::kMret:
      s.pc = s.mepc;
      if (s.mstatus & vm::kMstatusMpie) s.mstatus |= vm::kMstatusMie;
      s.in_interrupt = false;
      break;
    case Opcode::kWfi:
      // Wait for interrupt: advance hardware until an irq is pending (with
      // a liveness bound), then loop on the same pc until served.
      if (target_->IrqVector() == 0) {
        HS_RETURN_IF_ERROR(target_->Run(16));
        if (target_->IrqVector() == 0) return Status::Ok();  // keep waiting
      }
      s.pc = next_pc;
      break;
    case Opcode::kFence:
      s.pc = next_pc;
      break;
  }
  return Status::Ok();
}

Status Executor::ExecMemOp(State& s, const Instruction& in, Report* report) {
  const uint32_t next_pc = s.pc + 4;
  TermId addr_term =
      ctx_.Add(s.regs[in.rs1], ctx_.Const(static_cast<uint32_t>(in.imm), 32));
  auto addr_or = Concretize(s, addr_term, "memory address", report);
  if (!addr_or.ok()) return addr_or.status();
  const uint32_t addr = addr_or.value();

  const bool is_store = in.op == Opcode::kSb || in.op == Opcode::kSh ||
                        in.op == Opcode::kSw;
  unsigned bytes = 1;
  if (in.op == Opcode::kLh || in.op == Opcode::kLhu || in.op == Opcode::kSh)
    bytes = 2;
  if (in.op == Opcode::kLw || in.op == Opcode::kSw) bytes = 4;

  // --- host windows ----------------------------------------------------
  if (is_store && addr == vm::kHostPutchar) {
    auto ch = Concretize(s, s.regs[in.rs2], "console byte", report);
    if (!ch.ok()) return ch.status();
    s.console.push_back(static_cast<char>(ch.value() & 0xff));
    s.pc = next_pc;
    return Status::Ok();
  }
  if (is_store && addr == vm::kHostExit) {
    auto code = Concretize(s, s.regs[in.rs2], "exit code", report);
    if (!code.ok()) return code.status();
    s.status = StateStatus::kExited;
    s.exit_code = code.value();
    s.stop_reason = "exit";
    return Status::Ok();
  }

  // --- MMIO window: the VM boundary -----------------------------------
  if (vm::InMmio(addr)) {
    const uint32_t bus_addr = addr & 0xffff;
    if (is_store) {
      auto value = Concretize(s, s.regs[in.rs2], "MMIO store data", report);
      if (!value.ok()) return value.status();
      HS_RETURN_IF_ERROR(target_->Write32(bus_addr, value.value()));
    } else {
      auto value = target_->Read32(bus_addr);
      if (!value.ok()) return value.status();
      TermId v = ctx_.Const(value.value(), 32);
      switch (in.op) {
        case Opcode::kLb: v = ctx_.Sext(ctx_.Extract(v, 7, 0), 32); break;
        case Opcode::kLbu: v = ctx_.Zext(ctx_.Extract(v, 7, 0), 32); break;
        case Opcode::kLh: v = ctx_.Sext(ctx_.Extract(v, 15, 0), 32); break;
        case Opcode::kLhu: v = ctx_.Zext(ctx_.Extract(v, 15, 0), 32); break;
        default: break;
      }
      if (in.rd != 0) s.regs[in.rd] = v;
    }
    s.pc = next_pc;
    return Status::Ok();
  }

  // --- ordinary memory ---------------------------------------------------
  if (is_store) {
    if (!vm::InRam(addr) || !vm::InRam(addr + bytes - 1)) {
      char detail[64];
      std::snprintf(detail, sizeof detail, "store of %u bytes to 0x%08x",
                    bytes, addr);
      FlagBug(s, "out-of-bounds store", detail, report);
      return Status::Ok();
    }
    TermId value = s.regs[in.rs2];
    for (unsigned i = 0; i < bytes; ++i)
      StoreByte(s, addr + i, ctx_.Extract(value, 8 * i + 7, 8 * i));
    s.pc = next_pc;
    return Status::Ok();
  }

  if (!vm::InRam(addr) && !vm::InRom(addr)) {
    char detail[64];
    std::snprintf(detail, sizeof detail, "load of %u bytes from 0x%08x",
                  bytes, addr);
    FlagBug(s, "out-of-bounds load", detail, report);
    return Status::Ok();
  }
  auto raw = LoadWidth(s, addr, bytes);
  if (!raw.ok()) return raw.status();
  TermId v = raw.value();
  switch (in.op) {
    case Opcode::kLb: case Opcode::kLh: v = ctx_.Sext(v, 32); break;
    case Opcode::kLbu: case Opcode::kLhu: v = ctx_.Zext(v, 32); break;
    default: break;  // lw is already 32 bits
  }
  if (in.rd != 0) s.regs[in.rd] = v;
  s.pc = next_pc;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Main loop (Algorithm 1).

Result<Report> Executor::Run() {
  Report report;
  if (image_.bytes.empty())
    return FailedPrecondition("no firmware loaded");

  HS_RETURN_IF_ERROR(target_->ResetHardware());

  AddState(std::move(initial_));
  initial_ = nullptr;

  State* previous = nullptr;
  unsigned slice_left = 0;
  while (!searcher_->Empty() &&
         report.instructions < options_.max_instructions &&
         report.paths_completed < options_.max_paths) {
    State* s;
    if (slice_left > 0 && previous != nullptr &&
        previous->status == StateStatus::kRunning) {
      s = previous;  // current state still owns its scheduler slice
    } else {
      s = searcher_->SelectNext(previous);
      slice_left = options_.instructions_per_slice;
    }
    if (s != previous) {
      HS_RETURN_IF_ERROR(HwContextSwitch(previous, *s, &report));
    }
    previous = s;
    if (slice_left > 0) --slice_left;

    // Reclaim dead states (their memory maps and constraint vectors can
    // be large). `previous` now points at the live state `s`, so every
    // non-running state is safe to free.
    if (++iterations_since_sweep_ >= 256) {
      iterations_since_sweep_ = 0;
      states_.erase(
          std::remove_if(states_.begin(), states_.end(),
                         [s](const std::unique_ptr<State>& st) {
                           return st.get() != s &&
                                  st->status != StateStatus::kRunning;
                         }),
          states_.end());
    }

    ServePendingInterrupt(*s, &report);
    HS_RETURN_IF_ERROR(ExecuteInstruction(*s, &report));
    HS_RETURN_IF_ERROR(target_->Run(options_.cycles_per_instruction));
    if (options_.step_hook) options_.step_hook(*s);

    if (s->status == StateStatus::kRunning) {
      for (const auto& assertion : assertions_) {
        std::string failure = assertion(*s);
        if (!failure.empty()) {
          FlagBug(*s, "assertion", failure, &report);
          break;
        }
      }
    }

    if (s->status != StateStatus::kRunning) {
      FinishPath(*s, &report);
      RemoveState(s);
      // previous stays pointing at the dead state; the next SelectNext
      // sees a terminated previous and switches freely.
    }
  }

  // Budget exhausted: close out the remaining states.
  while (!searcher_->Empty()) {
    State* s = searcher_->SelectNext(nullptr);
    s->status = StateStatus::kTerminated;
    s->stop_reason = "budget exhausted";
    FinishPath(*s, &report);
    RemoveState(s);
  }

  report.analysis_hw_time = target_->clock().now() + replay_clock_.now();
  report.replay_overhead = replay_clock_.now();
  report.solver_queries += solver_.stats().queries;
  report.covered_pcs = covered_pcs_.size();
  report.snapshot_bytes_copied = target_->stats().snapshot_bytes_copied;
  report.link = target_->stats().link;
  const auto ss = hw_.store().stats();
  report.snapshot_bytes_shared = ss.bytes_shared;
  if (ss.bytes_copied + ss.bytes_shared > 0) {
    report.snapshot_dedup_ratio =
        static_cast<double>(ss.bytes_shared) /
        static_cast<double>(ss.bytes_copied + ss.bytes_shared);
  }
  return report;
}

}  // namespace hardsnap::symex
