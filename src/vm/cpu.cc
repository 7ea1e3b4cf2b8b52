#include "vm/cpu.h"

#include "common/bitops.h"
#include "vm/execute.h"

namespace hardsnap::vm {

// The concrete hart: values are uint32_t, the hardware is the target (if
// any), and a stop is written into `out`.
struct Cpu::Hart {
  using Value = uint32_t;

  Cpu& cpu;
  RunOutcome& out;

  uint32_t pc() const { return cpu.state_.pc; }
  void SetPc(uint32_t pc) { cpu.state_.pc = pc; }
  void Jump(uint32_t pc) {
    SetPc(pc);
    cpu.coverage_log_.push_back(pc);
  }
  MachineCsrs& csrs() { return cpu.state_.csr; }
  uint32_t Reg(unsigned i) const { return cpu.state_.regs[i]; }
  void SetReg(unsigned i, uint32_t v) { cpu.state_.regs[i] = v; }

  // --- arithmetic, with solver::BvContext's interface ----------------------
  // Values are 32 bits wide (comparisons 0 or 1) except the 64-bit ones
  // that Sext and Zext make for mulh*; shift amounts arrive masked.
  Hart& ops() { return *this; }
  static int32_t AsSigned(uint32_t v) { return static_cast<int32_t>(v); }
  static uint32_t Const(uint32_t v, unsigned) { return v; }
  static uint32_t Add(uint32_t a, uint32_t b) { return a + b; }
  static uint32_t Sub(uint32_t a, uint32_t b) { return a - b; }
  static uint32_t And(uint32_t a, uint32_t b) { return a & b; }
  static uint32_t Or(uint32_t a, uint32_t b) { return a | b; }
  static uint32_t Xor(uint32_t a, uint32_t b) { return a ^ b; }
  static uint32_t Shl(uint32_t a, uint32_t s) { return a << s; }
  static uint32_t Lshr(uint32_t a, uint32_t s) { return a >> s; }
  static uint32_t Ashr(uint32_t a, uint32_t s) {
    return static_cast<uint32_t>(AsSigned(a) >> s);
  }
  static uint64_t Mul(uint64_t a, uint64_t b) { return a * b; }
  static uint32_t Udiv(uint32_t a, uint32_t b) { return b == 0 ? ~0u : a / b; }
  static uint32_t Urem(uint32_t a, uint32_t b) { return b == 0 ? a : a % b; }
  static uint32_t Eq(uint32_t a, uint32_t b) { return a == b; }
  static uint32_t Ne(uint32_t a, uint32_t b) { return a != b; }
  static uint32_t Slt(uint32_t a, uint32_t b) {
    return AsSigned(a) < AsSigned(b);
  }
  static uint32_t Sge(uint32_t a, uint32_t b) {
    return AsSigned(a) >= AsSigned(b);
  }
  static uint32_t Ult(uint32_t a, uint32_t b) { return a < b; }
  static uint32_t Uge(uint32_t a, uint32_t b) { return a >= b; }
  static uint64_t Zext(uint64_t v, unsigned) { return v; }
  static uint64_t Sext(uint32_t v, unsigned) { return int64_t{AsSigned(v)}; }
  static uint32_t Extract(uint64_t v, unsigned hi, unsigned lo) {
    return static_cast<uint32_t>(ExtractBits(v, hi, lo));
  }

  // --- the hart's own compound ops ------------------------------------------
  // Signed division in 64 bits, where INT_MIN / -1 cannot overflow.
  static uint32_t Div(uint32_t a, uint32_t b) {
    if (b == 0) return ~0u;
    return static_cast<uint32_t>(int64_t{AsSigned(a)} / AsSigned(b));
  }
  static uint32_t Rem(uint32_t a, uint32_t b) {
    if (b == 0) return a;
    return static_cast<uint32_t>(int64_t{AsSigned(a)} % AsSigned(b));
  }
  static uint32_t Widen(uint32_t v, unsigned bytes, bool is_signed) {
    const unsigned shift = 32 - 8 * bytes;
    return is_signed ? static_cast<uint32_t>(AsSigned(v << shift) >> shift)
                     : v;
  }

  // --- the concrete domain needs no concretization or forking ------------
  static bool Concrete(uint32_t v, const char*, uint32_t* out) {
    *out = v;
    return true;
  }
  bool Branch(uint32_t taken, uint32_t target, uint32_t next) {
    taken ? Jump(target) : SetPc(next);
    return true;
  }

  // --- memory and hardware ------------------------------------------------
  // `bytes` little-endian bytes of mapped RAM or ROM from `addr`.
  uint32_t Load(uint32_t addr, unsigned bytes) const {
    uint32_t v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      const uint32_t a = addr + i;
      uint8_t byte = 0;
      if (InRam(a)) {
        byte = cpu.state_.ram[a - kRamBase];
      } else if (a - kRomBase < cpu.image_.bytes.size()) {
        byte = cpu.image_.bytes[a - kRomBase];  // ROM past the image is zero
      }
      v |= uint32_t{byte} << (8 * i);
    }
    return v;
  }
  void Store(uint32_t addr, uint32_t v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i)
      cpu.state_.ram[addr - kRamBase + i] = static_cast<uint8_t>(v >> (8 * i));
  }
  bool MmioRead(uint32_t bus_addr, uint32_t* v) {
    if (!cpu.target_) return NoHardware();
    auto r = cpu.target_->Read32(bus_addr);
    if (r.ok()) *v = r.value();
    return r.ok() || MmioFailed("MMIO read failed", r.status());
  }
  bool MmioWrite(uint32_t bus_addr, uint32_t v) {
    if (!cpu.target_) return NoHardware();
    const Status s = cpu.target_->Write32(bus_addr, v);
    return s.ok() || MmioFailed("MMIO write failed", s);
  }
  uint32_t IrqVector() const {
    return cpu.target_ ? cpu.target_->IrqVector() : 0;
  }
  // Losing the target mid-instruction is an infrastructure event, not a
  // firmware bug: surface it so the analysis layer can fail over.
  bool RunHardware(unsigned cycles) {
    if (!cpu.target_) return true;
    const Status s = cpu.target_->Run(cycles);
    return s.ok() || Stop(RunStatus::kHardwareError,
                          "hardware run failed: " + s.ToString());
  }

  // --- stops --------------------------------------------------------------
  void Putchar(char c) { cpu.console_.push_back(c); }
  void Exit(uint32_t code) {
    out.status = RunStatus::kExited;
    out.exit_code = code;
  }
  void Wait(const char* reason) { Stop(RunStatus::kWaiting, reason); }
  template <class... Args>
  void Bug(const char* kind, const char* /*detail_format*/, Args...) {
    Stop(RunStatus::kBug, kind);
  }
  bool Stop(RunStatus status, std::string reason) {
    out.status = status;
    out.fault_pc = pc();
    out.reason = std::move(reason);
    return false;
  }
  bool NoHardware() {
    return Stop(RunStatus::kBug, "MMIO access without hardware");
  }
  // A dead or timed-out link is the host's problem, not the firmware's:
  // report it as a hardware error so analyses re-provision instead of
  // logging a bogus crash finding.
  bool MmioFailed(const char* what, const Status& s) {
    if (IsInfrastructureFailure(s.code()))
      return Stop(RunStatus::kHardwareError,
                  std::string(what) + ": " + s.ToString());
    return Stop(RunStatus::kBug, what);
  }
};

Cpu::Cpu(bus::HardwareTarget* target, unsigned cycles_per_instruction)
    : target_(target), cycles_per_instruction_(cycles_per_instruction) {
  state_.ram.assign(kRamSize, 0);
  state_.regs[2] = kStackTop - 16;
}

Status Cpu::LoadFirmware(const FirmwareImage& image) {
  if (image.base != kRomBase)
    return InvalidArgument("firmware must be based at ROM");
  if (image.bytes.size() > kRomSize)
    return InvalidArgument("firmware larger than ROM");
  image_ = image;
  state_.pc = image.SymbolOr("_start", kRomBase);
  return Status::Ok();
}

Status Cpu::WriteRam(uint32_t addr, const std::vector<uint8_t>& bytes) {
  if (!InRam(addr) || !InRam(addr + static_cast<uint32_t>(bytes.size()) - 1))
    return OutOfRange("WriteRam outside RAM");
  for (size_t i = 0; i < bytes.size(); ++i)
    state_.ram[addr - kRamBase + i] = bytes[i];
  return Status::Ok();
}

RunOutcome Cpu::Step() {
  RunOutcome out;
  Hart hart{*this, out};
  ServeInterrupt(hart);

  if (!InRom(state_.pc) || (state_.pc & 3) != 0) {
    hart.Stop(RunStatus::kBug, "instruction fetch outside ROM");
    return out;
  }
  auto decoded = Decode(hart.Load(state_.pc, 4));
  if (!decoded.ok()) {
    hart.Stop(RunStatus::kBug, "illegal instruction");
    return out;
  }
  ++state_.icount;
  // Exits, bugs and waits stop before the hardware advances.
  if (Execute(hart, decoded.value()) == Flow::kRetired)
    hart.RunHardware(cycles_per_instruction_);
  return out;
}

RunOutcome Cpu::Run(uint64_t max_instructions) {
  RunOutcome out;
  for (uint64_t i = 0; i < max_instructions; ++i) {
    out = Step();
    if (out.status != RunStatus::kRunning) return out;
  }
  return out;
}

}  // namespace hardsnap::vm
