#include "symex/executor.h"

#include <algorithm>

#include "common/logging.h"
#include "vm/execute.h"
#include "vm/memmap.h"

namespace hardsnap::symex {

using solver::BvModel;
using solver::BvResult;
using solver::TermId;

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
// Instruction execution: vm::Execute over solver terms.

// State `s` as a hart: its values are terms, its control-flow and boundary
// crossings fork, and an error ends the run with `status`.
struct Executor::Hart {
  using Value = TermId;

  Executor& ex;
  solver::BvContext& ctx;
  State& s;
  Report* report;
  Status status;

  uint32_t pc() const { return s.pc; }
  void SetPc(uint32_t pc) { s.pc = pc; }
  void Jump(uint32_t pc) { s.pc = pc; }
  vm::MachineCsrs& csrs() { return s.csr; }
  TermId Reg(unsigned i) const { return s.regs[i]; }
  void SetReg(unsigned i, TermId v) { s.regs[i] = v; }

  // --- arithmetic: the context's terms, plus the compound ops ---------------
  solver::BvContext& ops() { return ctx; }
  TermId Widen(TermId v, unsigned /*bytes*/, bool is_signed) {
    return is_signed ? ctx.Sext(v, 32) : ctx.Zext(v, 32);
  }
  // Signed division through magnitudes (RISC-V: the INT_MIN / -1 overflow
  // wraps, division by zero yields -1 and leaves the dividend as remainder).
  TermId Div(TermId a, TermId b) { return SignedDivRem(a, b, true); }
  TermId Rem(TermId a, TermId b) { return SignedDivRem(a, b, false); }
  TermId SignedDivRem(TermId a, TermId b, bool quotient) {
    const TermId zero = ctx.Const(0, 32);
    const TermId a_neg = ctx.Slt(a, zero);
    const TermId b_neg = ctx.Slt(b, zero);
    const TermId abs_a = ctx.Ite(a_neg, ctx.Neg(a), a);
    const TermId abs_b = ctx.Ite(b_neg, ctx.Neg(b), b);
    if (!quotient) {
      const TermId r = ctx.Urem(abs_a, abs_b);
      const TermId signed_r = ctx.Ite(a_neg, ctx.Neg(r), r);
      return ctx.Ite(ctx.Eq(b, zero), a, signed_r);
    }
    const TermId q = ctx.Udiv(abs_a, abs_b);
    const TermId q_neg = ctx.Xor(a_neg, b_neg);
    const TermId signed_q = ctx.Ite(q_neg, ctx.Neg(q), q);
    const TermId all_ones = ctx.Const(~0u, 32);
    return ctx.Ite(ctx.Eq(b, zero), all_ones, signed_q);
  }

  // --- boundary crossings and forks ----------------------------------------
  bool Ok(Status st) {
    if (status.ok()) status = std::move(st);
    return status.ok();
  }
  bool Concrete(TermId v, const char* what, uint32_t* out) {
    auto r = ex.Concretize(s, v, what, report);
    if (r.ok()) *out = r.value();
    return Ok(r.status());
  }
  bool Branch(TermId cond, uint32_t target, uint32_t next) {
    return Ok(ex.ForkOnCondition(s, cond, target, next, report));
  }

  // --- memory and hardware -------------------------------------------------
  // Byte-granular overlay memory over the firmware image; RAM reads zero
  // until written.
  TermId Load(uint32_t addr, unsigned bytes) {
    TermId acc = solver::kNoTerm;
    for (unsigned i = 0; i < bytes; ++i) {
      const uint32_t a = addr + i;
      auto it = s.mem.find(a);
      TermId byte;
      if (it != s.mem.end()) {
        byte = it->second;
      } else {
        const uint32_t off = a - ex.image_.base;
        const bool in_image = vm::InRom(a) && off < ex.image_.bytes.size();
        byte = ctx.Const(in_image ? ex.image_.bytes[off] : 0, 8);
      }
      acc = i == 0 ? byte : ctx.Concat(byte, acc);  // little endian
    }
    return acc;
  }
  void Store(uint32_t addr, TermId v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i)
      s.mem[addr + i] = ctx.Extract(v, 8 * i + 7, 8 * i);
  }
  bool MmioRead(uint32_t bus_addr, TermId* v) {
    auto r = ex.target_->Read32(bus_addr);
    if (r.ok()) *v = ctx.Const(r.value(), 32);
    return Ok(r.status());
  }
  bool MmioWrite(uint32_t bus_addr, uint32_t v) {
    return Ok(ex.target_->Write32(bus_addr, v));
  }
  uint32_t IrqVector() { return ex.target_->IrqVector(); }
  bool RunHardware(unsigned cycles) { return Ok(ex.target_->Run(cycles)); }

  // --- stops -----------------------------------------------------------------
  void Putchar(char c) { s.console.push_back(c); }
  void Exit(uint32_t code) {
    s.status = StateStatus::kExited;
    s.exit_code = code;
    s.stop_reason = "exit";
  }
  void Wait(const char* reason) {
    s.status = StateStatus::kTerminated;
    s.stop_reason = reason;
  }
  template <class... Args>
  void Bug(const char* kind, const char* detail_format, Args... args) {
    char detail[64];
    std::snprintf(detail, sizeof detail, detail_format, args...);
    ex.FlagBug(s, kind, detail, report);
  }
};

Status Executor::Step(State& s, Report* report) {
  Hart hart{*this, ctx_, s, report, Status::Ok()};
  if (vm::ServeInterrupt(hart)) ++report->interrupts_served;
  // Instructions are immutable concrete bytes unless firmware self-modifies
  // (the overlay would make them symbolic; reject that).
  const bool in_rom = vm::InRom(s.pc) && (s.pc & 3) == 0;
  const TermId word = in_rom ? hart.Load(s.pc, 4) : solver::kNoTerm;
  if (!in_rom || !ctx_.IsConst(word)) {
    FlagBug(s, "bad instruction fetch",
            in_rom ? "symbolic instruction fetch"
                   : "instruction fetch outside ROM",
            report);
    return Status::Ok();
  }
  auto decoded = vm::Decode(static_cast<uint32_t>(ctx_.term(word).value));
  if (!decoded.ok()) {
    FlagBug(s, "illegal instruction", decoded.status().message(), report);
    return Status::Ok();
  }
  covered_pcs_.insert(s.pc);
  ++s.icount;
  ++report->instructions;
  vm::Execute(hart, decoded.value());
  return hart.status;
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

    HS_RETURN_IF_ERROR(Step(*s, &report));
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
