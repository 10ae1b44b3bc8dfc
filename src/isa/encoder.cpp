#include "isa/encoder.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/bitops.hpp"
#include "isa/disasm.hpp"

namespace mabfuzz::isa {

using common::bits;
using common::insert_bits;

std::optional<Word> encode(const Instruction& instr) noexcept {
  const InstrSpec& s = spec(instr.mnemonic);
  Word w = s.opcode;
  w = static_cast<Word>(insert_bits(w, 12, 3, s.funct3));

  switch (s.format) {
    case Format::kR:
      w = set_rd(w, instr.rd);
      w = set_rs1(w, instr.rs1);
      w = set_rs2(w, instr.rs2);
      w = static_cast<Word>(insert_bits(w, 25, 7, s.funct7));
      return w;

    case Format::kI:
      if (!fits_imm_i(instr.imm)) {
        return std::nullopt;
      }
      w = set_rd(w, instr.rd);
      w = set_rs1(w, instr.rs1);
      return set_imm_i(w, instr.imm);

    case Format::kIShift64:
      if (instr.imm < 0 || instr.imm > 63) {
        return std::nullopt;
      }
      w = set_rd(w, instr.rd);
      w = set_rs1(w, instr.rs1);
      w = static_cast<Word>(insert_bits(w, 20, 6, static_cast<std::uint64_t>(instr.imm)));
      // funct7[6:1] carries the shift family; bit 25 is shamt[5].
      return static_cast<Word>(insert_bits(w, 26, 6, s.funct7 >> 1));

    case Format::kIShift32:
      if (instr.imm < 0 || instr.imm > 31) {
        return std::nullopt;
      }
      w = set_rd(w, instr.rd);
      w = set_rs1(w, instr.rs1);
      w = static_cast<Word>(insert_bits(w, 20, 5, static_cast<std::uint64_t>(instr.imm)));
      return static_cast<Word>(insert_bits(w, 25, 7, s.funct7));

    case Format::kS:
      if (!fits_imm_s(instr.imm)) {
        return std::nullopt;
      }
      w = set_rs1(w, instr.rs1);
      w = set_rs2(w, instr.rs2);
      return set_imm_s(w, instr.imm);

    case Format::kB:
      if (!fits_imm_b(instr.imm)) {
        return std::nullopt;
      }
      w = set_rs1(w, instr.rs1);
      w = set_rs2(w, instr.rs2);
      return set_imm_b(w, instr.imm);

    case Format::kU:
      if (!fits_imm_u(instr.imm)) {
        return std::nullopt;
      }
      w = set_rd(w, instr.rd);
      return set_imm_u(w, instr.imm);

    case Format::kJ:
      if (!fits_imm_j(instr.imm)) {
        return std::nullopt;
      }
      w = set_rd(w, instr.rd);
      return set_imm_j(w, instr.imm);

    case Format::kCsr:
      w = set_rd(w, instr.rd);
      w = set_rs1(w, instr.rs1);
      return static_cast<Word>(insert_bits(w, 20, 12, instr.csr & 0xfffU));

    case Format::kCsrImm:
      // rs1 field carries the 5-bit zimm.
      w = set_rd(w, instr.rd);
      w = static_cast<Word>(insert_bits(w, 15, 5, instr.rs1 & 0x1fU));
      return static_cast<Word>(insert_bits(w, 20, 12, instr.csr & 0xfffU));

    case Format::kFence:
      // imm carries the raw fm/pred/succ bits for FENCE; zero for FENCE.I.
      w = set_rd(w, instr.rd);
      w = set_rs1(w, instr.rs1);
      return static_cast<Word>(
          insert_bits(w, 20, 12, static_cast<std::uint64_t>(instr.imm) & 0xfffU));

    case Format::kNullary:
      return static_cast<Word>(insert_bits(w, 20, 12, s.funct12));
  }
  return std::nullopt;
}

Word encode_or_die(const Instruction& instr) noexcept {
  const auto w = encode(instr);
  if (!w) {
    // Every encode() failure is an immediate out of its format's range.
    std::fprintf(stderr,
                 "isa::encode_or_die: cannot encode '%s': immediate %lld "
                 "does not fit its format\n",
                 disassemble(instr).c_str(), static_cast<long long>(instr.imm));
    std::abort();
  }
  return *w;
}

bool encodable(const Instruction& instr) noexcept { return encode(instr).has_value(); }

}  // namespace mabfuzz::isa
