#include "vm/isa.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "common/bitops.h"

namespace hardsnap::vm {

namespace {

// `width` word bits from bit `word_lo` hold immediate bits from `imm_lo` up.
struct ImmField {
  uint8_t word_lo, width, imm_lo;
};

struct FormatInfo {
  const char* syntax;           // see OperandSyntax
  bool rd, rs1, rs2;            // register fields the format encodes
  uint32_t mask;                // word bits that name the instruction
  uint8_t sign_bits;            // immediate width to sign-extend; 0 = none
  std::array<ImmField, 4> imm;  // zero-width entries unused
};

// Indexed by Format. The immediate bit-fields are listed only here, for
// both Decode and Encode.
constexpr FormatInfo kFormats[] = {
    /* kR      */ {"dst", true, true, true, 0xfe00707f, 0, {}},
    /* kI      */ {"dsi", true, true, false, 0x0000707f, 12, {{{20, 12, 0}}}},
    /* kShift  */ {"dsi", true, true, false, 0xfe00707f, 0, {{{20, 5, 0}}}},
    /* kLoad   */ {"dm", true, true, false, 0x0000707f, 12, {{{20, 12, 0}}}},
    /* kStore  */ {"tm", false, true, true, 0x0000707f, 12,
                   {{{7, 5, 0}, {25, 7, 5}}}},
    /* kBranch */ {"stb", false, true, true, 0x0000707f, 13,
                   {{{8, 4, 1}, {25, 6, 5}, {7, 1, 11}, {31, 1, 12}}}},
    /* kUpper  */ {"du", true, false, false, 0x0000007f, 32, {{{12, 20, 12}}}},
    /* kJump   */ {"db", true, false, false, 0x0000007f, 21,
                   {{{21, 10, 1}, {20, 1, 11}, {12, 8, 12}, {31, 1, 20}}}},
    /* kCsr    */ {"dcs", true, true, false, 0x0000707f, 0, {{{20, 12, 0}}}},
    /* kSystem */ {"", false, false, false, 0xffffffff, 0, {}},
    /* kFence  */ {"", false, false, false, 0x0000007f, 0, {}},
};

constexpr const FormatInfo& FormatOf(const OpcodeInfo& row) {
  return kFormats[static_cast<size_t>(row.format)];
}

// The word bits under the format's mask: what every encoding of `row` shares.
constexpr uint32_t MatchBits(const OpcodeInfo& row) {
  const uint32_t funct_shift = row.format == Format::kSystem ? 20 : 25;
  return (row.opcode | uint32_t{row.funct3} << 12 |
          uint32_t{row.funct} << funct_shift) &
         FormatOf(row).mask;
}

// The immediate (or CSR number) of a word of format F: its bit-fields
// gathered, then sign-extended. One instance per format, so that the
// fields are constants in each.
template <size_t F>
uint32_t DecodeImm(uint32_t w) {
  constexpr FormatInfo f = kFormats[F];
  const auto bits = [w](ImmField x) {
    return ((w >> x.word_lo) & ((1u << x.width) - 1)) << x.imm_lo;
  };
  const uint32_t imm =
      bits(f.imm[0]) | bits(f.imm[1]) | bits(f.imm[2]) | bits(f.imm[3]);
  return static_cast<uint32_t>(SignExtend(imm, f.sign_bits));
}

// Decode buckets: the rows whose major opcode (bits 6:2) and funct3 match,
// at most four per bucket, so Decode never scans the whole table. A row
// whose format ignores funct3 sits in all eight buckets of its opcode.
constexpr uint8_t kNoRow = 0xff;
struct Candidate {
  uint32_t mask = 0, match = 0;  // (word & mask) == match picks `row`
  uint8_t row = kNoRow;
  uint32_t (*imm)(uint32_t) = nullptr;
};
using Bucket = std::array<Candidate, 4>;

constexpr size_t BucketOf(uint32_t word) {
  return ((word >> 2) & 31) << 3 | ((word >> 12) & 7);
}

constexpr std::array<Bucket, 256> BuildBuckets() {
  constexpr auto decoders = []<size_t... F>(std::index_sequence<F...>) {
    return std::array{&DecodeImm<F>...};
  }(std::make_index_sequence<std::size(kFormats)>());
  std::array<Bucket, 256> buckets{};
  for (size_t i = 0; i < std::size(kOpcodes); ++i) {
    const OpcodeInfo& row = kOpcodes[i];
    const uint32_t mask = FormatOf(row).mask;
    for (uint32_t f3 = 0; f3 < 8; ++f3) {
      if ((mask & 0x7000) != 0 && f3 != row.funct3) continue;
      Bucket& b = buckets[BucketOf(row.opcode | f3 << 12)];
      size_t slot = 0;
      while (b[slot].row != kNoRow) ++slot;  // overflow fails to compile
      b[slot] = {mask, MatchBits(row), static_cast<uint8_t>(i),
                 decoders[static_cast<size_t>(row.format)]};
    }
  }
  return buckets;
}
constexpr std::array<Bucket, 256> kBuckets = BuildBuckets();

}  // namespace

std::optional<Opcode> FindMnemonic(std::string_view mnemonic) {
  for (size_t i = 0; i < std::size(kOpcodes); ++i)
    if (mnemonic == kOpcodes[i].mnemonic) return static_cast<Opcode>(i);
  return std::nullopt;
}

const char* OperandSyntax(Format format) {
  return kFormats[static_cast<size_t>(format)].syntax;
}

const char* RegName(unsigned reg) {
  static const char* names[32] = {
      "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
      "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
      "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
  return reg < 32 ? names[reg] : "??";
}

Result<Instruction> Decode(uint32_t w) {
  for (const Candidate& c : kBuckets[BucketOf(w)]) {
    if (c.row == kNoRow) break;
    if ((w & c.mask) != c.match) continue;
    Instruction in;
    in.op = static_cast<Opcode>(c.row);
    in.rd = static_cast<uint8_t>((w >> 7) & 31);
    in.rs1 = static_cast<uint8_t>((w >> 15) & 31);
    in.rs2 = static_cast<uint8_t>((w >> 20) & 31);
    const uint32_t imm = c.imm(w);
    if (kOpcodes[c.row].format == Format::kCsr)
      in.csr = imm;
    else
      in.imm = static_cast<int32_t>(imm);
    return in;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "cannot decode instruction word 0x%08x", w);
  return InvalidArgument(buf);
}

Result<uint32_t> Encode(const Instruction& in) {
  if (static_cast<size_t>(in.op) >= std::size(kOpcodes))
    return InvalidArgument("cannot encode instruction");
  const OpcodeInfo& row = Info(in.op);
  const FormatInfo& f = FormatOf(row);
  uint32_t w = MatchBits(row);
  if (f.rd) w |= uint32_t{in.rd & 31u} << 7;
  if (f.rs1) w |= uint32_t{in.rs1 & 31u} << 15;
  if (f.rs2) w |= uint32_t{in.rs2 & 31u} << 20;
  const uint32_t imm =
      row.format == Format::kCsr ? in.csr : static_cast<uint32_t>(in.imm);
  for (const ImmField& field : f.imm)
    w |= ((imm >> field.imm_lo) & ((1u << field.width) - 1)) << field.word_lo;
  return w;
}

std::string Disassemble(const Instruction& in) {
  std::string out = OpcodeName(in.op);
  const char* separator = " ";
  for (const char* c = OperandSyntax(Info(in.op).format); *c; ++c) {
    char buf[32];
    switch (*c) {
      case 'd': std::snprintf(buf, sizeof buf, "%s", RegName(in.rd)); break;
      case 's': std::snprintf(buf, sizeof buf, "%s", RegName(in.rs1)); break;
      case 't': std::snprintf(buf, sizeof buf, "%s", RegName(in.rs2)); break;
      case 'u':
        std::snprintf(buf, sizeof buf, "0x%x",
                      static_cast<uint32_t>(in.imm) >> 12);
        break;
      case 'm':
        std::snprintf(buf, sizeof buf, "%d(%s)", in.imm, RegName(in.rs1));
        break;
      case 'c': std::snprintf(buf, sizeof buf, "0x%x", in.csr); break;
      default: std::snprintf(buf, sizeof buf, "%d", in.imm); break;  // i, b
    }
    out += separator;
    out += buf;
    separator = ", ";
  }
  return out;
}

}  // namespace hardsnap::vm
