// RV32IM instruction set: the opcode table, decoding and encoding.
//
// The paper's VM executes ARM firmware through Inception/KLEE; this repo
// uses RV32IM as the firmware ISA (open, compact, and sufficient for the
// synthetic firmware corpus).
//
// The encoding is written once, in kOpcodes below: one row per opcode with
// its mnemonic, format, opcode, funct3 and funct7 (or funct12), and one
// entry per format in isa.cc listing its immediate bit-fields. Decode,
// Encode, OpcodeName, Disassemble and the assembler's instruction lookup all
// read that table. What each opcode does is written once too, in
// vm/execute.h, which the concrete CPU and the symbolic executor share.
//
// Supported: the full RV32I base (FENCE decodes to a no-op) plus the M
// extension, the CSR instructions needed for machine-mode interrupt
// handling (csrrw/csrrs/csrrc on mstatus/mtvec/mepc/mcause), mret, wfi,
// ecall and ebreak.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hardsnap::vm {

// Where an instruction's fields sit in its word, and how its operands are
// written in assembly (OperandSyntax).
enum class Format : uint8_t {
  kR,       // add rd, rs1, rs2
  kI,       // addi rd, rs1, imm[11:0]
  kShift,   // slli rd, rs1, shamt[4:0] (funct7 fixed)
  kLoad,    // lw rd, imm(rs1): I-type fields (loads and jalr)
  kStore,   // sw rs2, imm(rs1)
  kBranch,  // beq rs1, rs2, offset[12:1]
  kUpper,   // lui rd, imm[31:12]
  kJump,    // jal rd, offset[20:1]
  kCsr,     // csrrw rd, csr, rs1
  kSystem,  // ecall: the whole word is fixed (funct12)
  kFence,   // fence: funct3 and the operands are ignored
};

// The opcode table: one row per instruction, giving its enumerator, its
// mnemonic, its format, the opcode (bits 6:0), funct3 (bits 14:12; loads
// and stores keep their size there: [2] unsigned, [1:0] log2 bytes) and
// funct: funct7 (bits 31:25) of kR and kShift rows, funct12 (bits 31:20)
// of kSystem rows. It defines both Opcode and kOpcodes.
#define HS_RV32IM_OPCODES(X)                   \
  X(Lui, "lui", kUpper, 0x37, 0, 0)            \
  X(Auipc, "auipc", kUpper, 0x17, 0, 0)        \
  X(Jal, "jal", kJump, 0x6f, 0, 0)             \
  X(Jalr, "jalr", kLoad, 0x67, 0, 0)           \
  X(Beq, "beq", kBranch, 0x63, 0, 0)           \
  X(Bne, "bne", kBranch, 0x63, 1, 0)           \
  X(Blt, "blt", kBranch, 0x63, 4, 0)           \
  X(Bge, "bge", kBranch, 0x63, 5, 0)           \
  X(Bltu, "bltu", kBranch, 0x63, 6, 0)         \
  X(Bgeu, "bgeu", kBranch, 0x63, 7, 0)         \
  X(Lb, "lb", kLoad, 0x03, 0, 0)               \
  X(Lh, "lh", kLoad, 0x03, 1, 0)               \
  X(Lw, "lw", kLoad, 0x03, 2, 0)               \
  X(Lbu, "lbu", kLoad, 0x03, 4, 0)             \
  X(Lhu, "lhu", kLoad, 0x03, 5, 0)             \
  X(Sb, "sb", kStore, 0x23, 0, 0)              \
  X(Sh, "sh", kStore, 0x23, 1, 0)              \
  X(Sw, "sw", kStore, 0x23, 2, 0)              \
  X(Addi, "addi", kI, 0x13, 0, 0)              \
  X(Slti, "slti", kI, 0x13, 2, 0)              \
  X(Sltiu, "sltiu", kI, 0x13, 3, 0)            \
  X(Xori, "xori", kI, 0x13, 4, 0)              \
  X(Ori, "ori", kI, 0x13, 6, 0)                \
  X(Andi, "andi", kI, 0x13, 7, 0)              \
  X(Slli, "slli", kShift, 0x13, 1, 0x00)       \
  X(Srli, "srli", kShift, 0x13, 5, 0x00)       \
  X(Srai, "srai", kShift, 0x13, 5, 0x20)       \
  X(Add, "add", kR, 0x33, 0, 0x00)             \
  X(Sub, "sub", kR, 0x33, 0, 0x20)             \
  X(Sll, "sll", kR, 0x33, 1, 0x00)             \
  X(Slt, "slt", kR, 0x33, 2, 0x00)             \
  X(Sltu, "sltu", kR, 0x33, 3, 0x00)           \
  X(Xor, "xor", kR, 0x33, 4, 0x00)             \
  X(Srl, "srl", kR, 0x33, 5, 0x00)             \
  X(Sra, "sra", kR, 0x33, 5, 0x20)             \
  X(Or, "or", kR, 0x33, 6, 0x00)               \
  X(And, "and", kR, 0x33, 7, 0x00)             \
  X(Mul, "mul", kR, 0x33, 0, 0x01)             \
  X(Mulh, "mulh", kR, 0x33, 1, 0x01)           \
  X(Mulhsu, "mulhsu", kR, 0x33, 2, 0x01)       \
  X(Mulhu, "mulhu", kR, 0x33, 3, 0x01)         \
  X(Div, "div", kR, 0x33, 4, 0x01)             \
  X(Divu, "divu", kR, 0x33, 5, 0x01)           \
  X(Rem, "rem", kR, 0x33, 6, 0x01)             \
  X(Remu, "remu", kR, 0x33, 7, 0x01)           \
  X(Csrrw, "csrrw", kCsr, 0x73, 1, 0)          \
  X(Csrrs, "csrrs", kCsr, 0x73, 2, 0)          \
  X(Csrrc, "csrrc", kCsr, 0x73, 3, 0)          \
  X(Ecall, "ecall", kSystem, 0x73, 0, 0x000)   \
  X(Ebreak, "ebreak", kSystem, 0x73, 0, 0x001) \
  X(Mret, "mret", kSystem, 0x73, 0, 0x302)     \
  X(Wfi, "wfi", kSystem, 0x73, 0, 0x105)       \
  X(Fence, "fence", kFence, 0x0f, 0, 0)

enum class Opcode : uint8_t {
#define HS_OPCODE_ENUMERATOR(name, ...) k##name,
  HS_RV32IM_OPCODES(HS_OPCODE_ENUMERATOR)
#undef HS_OPCODE_ENUMERATOR
};

struct OpcodeInfo {
  std::string_view mnemonic;  // NUL-terminated
  Format format;
  uint8_t opcode, funct3;
  uint16_t funct;
};

inline constexpr OpcodeInfo kOpcodes[] = {
#define HS_OPCODE_ROW(name, mnemonic, format, ...) \
  {mnemonic, Format::format, __VA_ARGS__},
    HS_RV32IM_OPCODES(HS_OPCODE_ROW)
#undef HS_OPCODE_ROW
};

constexpr const OpcodeInfo& Info(Opcode op) {
  return kOpcodes[static_cast<size_t>(op)];
}

inline const char* OpcodeName(Opcode op) { return Info(op).mnemonic.data(); }

// The real (not pseudo) instruction spelled `mnemonic`, if any.
std::optional<Opcode> FindMnemonic(std::string_view mnemonic);

// A format's assembly operands, one letter each: d rd, s rs1, t rs2, i an
// immediate, u imm[31:12], m offset(rs1), b a pc-relative target, c a CSR.
// The assembler parses and Disassemble prints by it.
const char* OperandSyntax(Format format);

// CSR addresses (machine mode subset).
inline constexpr uint32_t kCsrMstatus = 0x300;
inline constexpr uint32_t kCsrMtvec = 0x305;
inline constexpr uint32_t kCsrMepc = 0x341;
inline constexpr uint32_t kCsrMcause = 0x342;
inline constexpr uint32_t kMstatusMie = 1u << 3;
inline constexpr uint32_t kMstatusMpie = 1u << 7;

// The machine-mode CSR file. Concrete in both execution domains: only the
// interrupt plumbing reads it.
struct MachineCsrs {
  uint32_t mstatus = 0, mtvec = 0, mepc = 0, mcause = 0;
  bool in_interrupt = false;  // Inception-style atomic interrupt handling

  // The register at CSR address `csr`, or null for an unknown CSR.
  uint32_t* Find(uint32_t csr) {
    switch (csr) {
      case kCsrMstatus: return &mstatus;
      case kCsrMtvec: return &mtvec;
      case kCsrMepc: return &mepc;
      case kCsrMcause: return &mcause;
    }
    return nullptr;
  }
};

struct Instruction {
  Opcode op = Opcode::kAddi;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int32_t imm = 0;     // sign-extended immediate (B/J offsets included)
  uint32_t csr = 0;    // CSR address for csr ops
};

// Decode a 32-bit instruction word. Unknown encodings are an error with
// the offending word in the message.
Result<Instruction> Decode(uint32_t word);

// Encode an instruction back to its 32-bit word (assembler back-end).
Result<uint32_t> Encode(const Instruction& instr);

// Disassemble for diagnostics ("addi a0, a0, 1").
std::string Disassemble(const Instruction& instr);

// ABI register names x0..x31 -> "zero", "ra", "sp", ...
const char* RegName(unsigned reg);

}  // namespace hardsnap::vm
