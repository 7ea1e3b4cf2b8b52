#include "vm/assembler.h"

#include <cctype>
#include <optional>
#include <string_view>

#include "vm/isa.h"

namespace hardsnap::vm {

namespace {

struct Operand {
  enum Kind { kReg, kImm, kSymbol, kMem } kind;
  uint8_t reg = 0;       // kReg / kMem base
  int64_t imm = 0;       // kImm / kMem offset
  std::string symbol;    // kSymbol
};

struct ParsedLine {
  int number = 0;
  std::string label;     // without ':'
  std::string mnemonic;  // lower-case, may be a directive (".word")
  std::vector<Operand> operands;
};

Status ErrAt(int line, const std::string& msg) {
  return ParseError("asm line " + std::to_string(line) + ": " + msg);
}

std::optional<uint8_t> ParseReg(const std::string& tok) {
  static const std::map<std::string, uint8_t> abi = [] {
    std::map<std::string, uint8_t> m;
    for (unsigned i = 0; i < 32; ++i) {
      m[RegName(i)] = static_cast<uint8_t>(i);
      m["x" + std::to_string(i)] = static_cast<uint8_t>(i);
    }
    m["fp"] = 8;
    return m;
  }();
  auto it = abi.find(tok);
  if (it == abi.end()) return std::nullopt;
  return it->second;
}

std::optional<int64_t> ParseNumber(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  size_t i = 0;
  bool neg = false;
  if (tok[0] == '-') { neg = true; i = 1; }
  if (i >= tok.size()) return std::nullopt;
  int64_t value = 0;
  if (tok.size() > i + 1 && tok[i] == '0' &&
      (tok[i + 1] == 'x' || tok[i + 1] == 'X')) {
    for (size_t j = i + 2; j < tok.size(); ++j) {
      char c = static_cast<char>(std::tolower(tok[j]));
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else if (c == '_') continue;
      else return std::nullopt;
      value = value * 16 + d;
    }
  } else {
    for (size_t j = i; j < tok.size(); ++j) {
      if (tok[j] == '_') continue;
      if (!std::isdigit(static_cast<unsigned char>(tok[j]))) return std::nullopt;
      value = value * 10 + (tok[j] - '0');
    }
  }
  return neg ? -value : value;
}

// Split "lw a0, 8(sp)" operands on commas (parens kept together).
std::vector<std::string> SplitOperands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  for (auto& tok : out) {
    size_t b = tok.find_first_not_of(" \t");
    size_t e = tok.find_last_not_of(" \t");
    tok = b == std::string::npos ? "" : tok.substr(b, e - b + 1);
  }
  return out;
}

Result<Operand> ParseOperand(const std::string& tok, int line) {
  Operand op;
  // mem form: imm(reg)
  size_t lp = tok.find('(');
  if (lp != std::string::npos && tok.back() == ')') {
    const std::string off = tok.substr(0, lp);
    const std::string base = tok.substr(lp + 1, tok.size() - lp - 2);
    auto reg = ParseReg(base);
    if (!reg) return ErrAt(line, "bad base register '" + base + "'");
    auto imm = off.empty() ? std::optional<int64_t>(0) : ParseNumber(off);
    if (!imm) return ErrAt(line, "bad memory offset '" + off + "'");
    op.kind = Operand::kMem;
    op.reg = *reg;
    op.imm = *imm;
    return op;
  }
  if (auto reg = ParseReg(tok)) {
    op.kind = Operand::kReg;
    op.reg = *reg;
    return op;
  }
  if (auto imm = ParseNumber(tok)) {
    op.kind = Operand::kImm;
    op.imm = *imm;
    return op;
  }
  // symbol (label or CSR name)
  op.kind = Operand::kSymbol;
  op.symbol = tok;
  return op;
}

std::optional<uint32_t> CsrByName(const std::string& name) {
  if (name == "mstatus") return kCsrMstatus;
  if (name == "mtvec") return kCsrMtvec;
  if (name == "mepc") return kCsrMepc;
  if (name == "mcause") return kCsrMcause;
  return std::nullopt;
}

// Pseudo-instructions that stand for one real instruction, spelled with
// their own operands as $0 and $1. li and la, which may take two, are
// expanded by the assembler itself.
struct Alias {
  std::string_view name;
  size_t operands;
  const char* expansion;
};
constexpr Alias kAliases[] = {
    {"nop", 0, "addi zero, zero, 0"}, {"mv", 2, "addi $0, $1, 0"},
    {"j", 1, "jal zero, $0"},         {"call", 1, "jal ra, $0"},
    {"jr", 1, "jalr zero, 0($0)"},    {"ret", 0, "jalr zero, 0(ra)"},
    {"beqz", 2, "beq $0, zero, $1"},  {"bnez", 2, "bne $0, zero, $1"},
    {"csrr", 2, "csrrs $0, $1, zero"}, {"csrw", 2, "csrrw zero, $0, $1"},
};

// Rewrites a pseudo-instruction of kAliases into the instruction it stands
// for; leaves anything else as it is.
Status ExpandAlias(int line, std::string* mnemonic,
                   std::vector<std::string>* operands) {
  for (const Alias& alias : kAliases) {
    if (*mnemonic != alias.name) continue;
    if (operands->size() != alias.operands)
      return ErrAt(line, *mnemonic + " expects " +
                             std::to_string(alias.operands) + " operands");
    std::string text = alias.expansion;
    for (size_t i = 0; i < alias.operands; ++i)
      text.replace(text.find('$' + std::to_string(i)), 2, (*operands)[i]);
    const size_t space = text.find(' ');
    *mnemonic = text.substr(0, space);
    *operands = SplitOperands(text.substr(space + 1));
    break;
  }
  return Status::Ok();
}

class Assembler {
 public:
  explicit Assembler(uint32_t base) : base_(base) {}

  Result<FirmwareImage> Run(const std::string& source) {
    HS_RETURN_IF_ERROR(ParseLines(source));
    HS_RETURN_IF_ERROR(Layout());   // pass 1: sizes + symbols
    HS_RETURN_IF_ERROR(EmitAll());  // pass 2: encode
    FirmwareImage img;
    img.base = base_;
    img.bytes = std::move(image_);
    img.symbols = std::move(symbols_);
    return img;
  }

 private:
  // Size in bytes each mnemonic occupies (pseudo-expansion aware).
  Result<uint32_t> SizeOf(const ParsedLine& l) {
    const std::string& m = l.mnemonic;
    if (m == ".org" || m.empty()) return 0u;
    if (m == ".word") return static_cast<uint32_t>(4 * l.operands.size());
    if (m == ".space") {
      if (l.operands.size() != 1 || l.operands[0].kind != Operand::kImm)
        return ErrAt(l.number, ".space needs a byte count");
      return static_cast<uint32_t>(l.operands[0].imm);
    }
    if (m == "li" || m == "la") return 8;  // worst case lui+addi
    return 4;
  }

  Status ParseLines(const std::string& source) {
    std::string line;
    int number = 0;
    size_t pos = 0;
    while (pos <= source.size()) {
      size_t nl = source.find('\n', pos);
      if (nl == std::string::npos) nl = source.size();
      line = source.substr(pos, nl - pos);
      pos = nl + 1;
      ++number;

      // strip comments
      for (const char* marker : {"#", "//"}) {
        size_t c = line.find(marker);
        if (c != std::string::npos) line = line.substr(0, c);
      }
      // trim
      size_t b = line.find_first_not_of(" \t\r");
      if (b == std::string::npos) continue;
      size_t e = line.find_last_not_of(" \t\r");
      line = line.substr(b, e - b + 1);

      ParsedLine pl;
      pl.number = number;
      // label?
      size_t colon = line.find(':');
      if (colon != std::string::npos &&
          line.find_first_of(" \t\"") > colon) {
        pl.label = line.substr(0, colon);
        line = line.substr(colon + 1);
        size_t b2 = line.find_first_not_of(" \t");
        line = b2 == std::string::npos ? "" : line.substr(b2);
      }
      if (!line.empty()) {
        size_t sp = line.find_first_of(" \t");
        pl.mnemonic = line.substr(0, sp);
        for (auto& c : pl.mnemonic) c = static_cast<char>(std::tolower(c));
        std::vector<std::string> toks;
        if (sp != std::string::npos) toks = SplitOperands(line.substr(sp + 1));
        HS_RETURN_IF_ERROR(ExpandAlias(number, &pl.mnemonic, &toks));
        for (const std::string& tok : toks) {
          if (tok.empty()) return ErrAt(number, "empty operand");
          auto op = ParseOperand(tok, number);
          if (!op.ok()) return op.status();
          pl.operands.push_back(std::move(op).value());
        }
      }
      lines_.push_back(std::move(pl));
    }
    return Status::Ok();
  }

  Status Layout() {
    uint32_t pc = base_;
    for (const auto& l : lines_) {
      if (!l.label.empty()) {
        if (symbols_.count(l.label))
          return ErrAt(l.number, "duplicate label '" + l.label + "'");
        symbols_[l.label] = pc;
      }
      if (l.mnemonic == ".org") {
        if (l.operands.size() != 1 || l.operands[0].kind != Operand::kImm)
          return ErrAt(l.number, ".org needs an address");
        const uint32_t target = static_cast<uint32_t>(l.operands[0].imm);
        if (target < pc) return ErrAt(l.number, ".org cannot move backward");
        pc = target;
        if (!l.label.empty()) symbols_[l.label] = pc;
        continue;
      }
      auto size = SizeOf(l);
      if (!size.ok()) return size.status();
      pc += size.value();
    }
    return Status::Ok();
  }

  Result<int64_t> ImmOrSymbol(const Operand& op, int line) {
    if (op.kind == Operand::kImm) return op.imm;
    if (op.kind == Operand::kSymbol) {
      auto it = symbols_.find(op.symbol);
      if (it == symbols_.end())
        return ErrAt(line, "unknown symbol '" + op.symbol + "'");
      return static_cast<int64_t>(it->second);
    }
    return ErrAt(line, "expected immediate or symbol");
  }

  Status EmitWord(uint32_t word) {
    const uint32_t off = pc_ - base_;
    if (image_.size() < off + 4) image_.resize(off + 4, 0);
    for (int i = 0; i < 4; ++i)
      image_[off + i] = static_cast<uint8_t>(word >> (8 * i));
    pc_ += 4;
    return Status::Ok();
  }

  Status EmitInstr(const Instruction& in, int line) {
    auto word = Encode(in);
    if (!word.ok())
      return ErrAt(line, "encode failed: " + word.status().ToString());
    return EmitWord(word.value());
  }

  Status EmitLi(uint8_t rd, int64_t value, int line) {
    const int32_t v = static_cast<int32_t>(value);
    if (v >= -2048 && v < 2048) {
      HS_RETURN_IF_ERROR(
          EmitInstr({Opcode::kAddi, rd, 0, 0, v, 0}, line));
      return EmitInstr({Opcode::kAddi, rd, rd, 0, 0, 0}, line);  // pad (nop-like)
    }
    const uint32_t uv = static_cast<uint32_t>(v);
    const uint32_t hi = (uv + 0x800) & 0xfffff000u;
    const int32_t lo = static_cast<int32_t>(uv - hi);
    HS_RETURN_IF_ERROR(EmitInstr(
        {Opcode::kLui, rd, 0, 0, static_cast<int32_t>(hi), 0}, line));
    return EmitInstr({Opcode::kAddi, rd, rd, 0, lo, 0}, line);
  }

  Status EmitAll() {
    pc_ = base_;
    for (const auto& l : lines_) {
      if (l.mnemonic == ".org") {
        pc_ = static_cast<uint32_t>(l.operands[0].imm);
        const uint32_t off = pc_ - base_;
        if (image_.size() < off) image_.resize(off, 0);
        continue;
      }
      if (l.mnemonic.empty()) continue;
      HS_RETURN_IF_ERROR(EmitOne(l));
    }
    return Status::Ok();
  }

  Status EmitOne(const ParsedLine& l) {
    const std::string& m = l.mnemonic;
    const int line = l.number;
    const auto& ops = l.operands;
    auto need = [&](size_t n) -> Status {
      if (ops.size() != n)
        return ErrAt(line, m + " expects " + std::to_string(n) + " operands");
      return Status::Ok();
    };
    auto reg = [&](size_t i) { return ops[i].reg; };

    // --- directives ---------------------------------------------------
    if (m == ".word") {
      for (const auto& op : ops) {
        auto v = ImmOrSymbol(op, line);
        if (!v.ok()) return v.status();
        HS_RETURN_IF_ERROR(EmitWord(static_cast<uint32_t>(v.value())));
      }
      return Status::Ok();
    }
    if (m == ".space") {
      const uint32_t n = static_cast<uint32_t>(ops[0].imm);
      const uint32_t off = pc_ - base_;
      if (image_.size() < off + n) image_.resize(off + n, 0);
      pc_ += n;
      return Status::Ok();
    }

    // --- li and la: one or two instructions ----------------------------
    if (m == "li" || m == "la") {
      HS_RETURN_IF_ERROR(need(2));
      auto v = ImmOrSymbol(ops[1], line);
      if (!v.ok()) return v.status();
      return EmitLi(reg(0), v.value(), line);
    }

    // --- real instructions, by the operand syntax of their format ------
    const std::optional<Opcode> op = FindMnemonic(m);
    if (!op) return ErrAt(line, "unknown mnemonic '" + m + "'");
    const std::string_view syntax = OperandSyntax(Info(*op).format);
    HS_RETURN_IF_ERROR(need(syntax.size()));
    Instruction in{*op, 0, 0, 0, 0, 0};
    for (size_t i = 0; i < syntax.size(); ++i) {
      const Operand& o = ops[i];
      switch (syntax[i]) {
        case 'd': in.rd = o.reg; break;
        case 's': in.rs1 = o.reg; break;
        case 't': in.rs2 = o.reg; break;
        case 'm':
          if (o.kind != Operand::kMem)
            return ErrAt(line, m + " needs an offset(base) operand");
          in.rs1 = o.reg;
          in.imm = static_cast<int32_t>(o.imm);
          break;
        case 'c': {
          auto csr = CsrByName(o.symbol);
          if (!csr) return ErrAt(line, "unknown CSR");
          in.csr = *csr;
          break;
        }
        default: {  // i, u, b: an immediate or a label
          auto v = ImmOrSymbol(o, line);
          if (!v.ok()) return v.status();
          const auto bits = static_cast<uint32_t>(
              v.value() - (syntax[i] == 'b' ? int64_t{pc_} : 0));
          in.imm = static_cast<int32_t>(syntax[i] == 'u' ? bits << 12 : bits);
        }
      }
    }
    return EmitInstr(in, line);
  }

  uint32_t base_;
  uint32_t pc_ = 0;
  std::vector<ParsedLine> lines_;
  std::map<std::string, uint32_t> symbols_;
  std::vector<uint8_t> image_;
};

}  // namespace

Result<FirmwareImage> Assemble(const std::string& source, uint32_t base) {
  Assembler as(base);
  return as.Run(source);
}

}  // namespace hardsnap::vm
