// ISA-layer tests: field codecs, the opcode table, encode/decode
// round-trips across the entire instruction set (parameterised), strict
// illegal-encoding classification, and the disassembler.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "isa/builder.hpp"
#include "isa/csr_defs.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoder.hpp"
#include "isa/opcode.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::isa {
namespace {

// --- field codecs -------------------------------------------------------------

TEST(Fields, ImmIRoundTrip) {
  for (std::int64_t imm : {-2048L, -1L, 0L, 1L, 2047L}) {
    const Word w = set_imm_i(0, imm);
    EXPECT_EQ(imm_i(w), imm) << imm;
  }
}

TEST(Fields, ImmSRoundTrip) {
  for (std::int64_t imm : {-2048L, -7L, 0L, 5L, 2047L}) {
    const Word w = set_imm_s(0, imm);
    EXPECT_EQ(imm_s(w), imm) << imm;
  }
}

TEST(Fields, ImmBRoundTrip) {
  for (std::int64_t imm : {-4096L, -2L, 0L, 2L, 4094L}) {
    const Word w = set_imm_b(0, imm);
    EXPECT_EQ(imm_b(w), imm) << imm;
  }
}

TEST(Fields, ImmURoundTrip) {
  for (std::int64_t imm : {-2147483648L, -4096L, 0L, 4096L, 2147479552L}) {
    const Word w = set_imm_u(0, imm);
    EXPECT_EQ(imm_u(w), imm) << imm;
  }
}

TEST(Fields, ImmJRoundTrip) {
  for (std::int64_t imm : {-1048576L, -2L, 0L, 2L, 1048574L}) {
    const Word w = set_imm_j(0, imm);
    EXPECT_EQ(imm_j(w), imm) << imm;
  }
}

TEST(Fields, RegisterFields) {
  Word w = 0;
  w = set_rd(w, 31);
  w = set_rs1(w, 17);
  w = set_rs2(w, 5);
  EXPECT_EQ(rd_field(w), 31);
  EXPECT_EQ(rs1_field(w), 17);
  EXPECT_EQ(rs2_field(w), 5);
}

TEST(Fields, RegNames) {
  EXPECT_EQ(reg_name(0), "zero");
  EXPECT_EQ(reg_name(1), "ra");
  EXPECT_EQ(reg_name(2), "sp");
  EXPECT_EQ(reg_name(10), "a0");
  EXPECT_EQ(reg_name(31), "t6");
}

TEST(Fields, ImmRangeChecks) {
  EXPECT_TRUE(fits_imm_i(2047));
  EXPECT_FALSE(fits_imm_i(2048));
  EXPECT_TRUE(fits_imm_b(-4096));
  EXPECT_FALSE(fits_imm_b(-4097));
  EXPECT_FALSE(fits_imm_b(3));  // odd
  EXPECT_TRUE(fits_imm_u(0x7ffff000));
  EXPECT_FALSE(fits_imm_u(0x123));  // low bits set
  EXPECT_TRUE(fits_imm_j(1048574));
  EXPECT_FALSE(fits_imm_j(1048576));
}

// --- opcode table ---------------------------------------------------------------

TEST(OpcodeTable, EveryMnemonicHasSpec) {
  EXPECT_EQ(all_specs().size(), kNumMnemonics);
  for (const InstrSpec& s : all_specs()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_EQ(&spec(s.mnemonic), &s);
  }
}

TEST(OpcodeTable, NameLookup) {
  EXPECT_EQ(mnemonic_from_name("addi"), Mnemonic::kAddi);
  EXPECT_EQ(mnemonic_from_name("fence.i"), Mnemonic::kFenceI);
  EXPECT_EQ(mnemonic_from_name("remuw"), Mnemonic::kRemuw);
  EXPECT_EQ(mnemonic_from_name("bogus"), std::nullopt);
}

TEST(OpcodeTable, LoadStoreMetadata) {
  EXPECT_EQ(spec(Mnemonic::kLd).access_bytes, 8u);
  EXPECT_TRUE(spec(Mnemonic::kLbu).load_unsigned);
  EXPECT_FALSE(spec(Mnemonic::kLb).load_unsigned);
  EXPECT_EQ(spec(Mnemonic::kSw).access_bytes, 4u);
  EXPECT_TRUE(is_store(spec(Mnemonic::kSd)));
  EXPECT_TRUE(is_load(spec(Mnemonic::kLw)));
}

TEST(OpcodeTable, ClassPredicates) {
  EXPECT_TRUE(is_branch(spec(Mnemonic::kBeq)));
  EXPECT_TRUE(is_control_flow(spec(Mnemonic::kJal)));
  EXPECT_FALSE(is_control_flow(spec(Mnemonic::kAdd)));
  EXPECT_TRUE(is_csr_op(spec(Mnemonic::kCsrrci)));
}

// --- round-trip over the whole ISA (parameterised) --------------------------------

class RoundTrip : public ::testing::TestWithParam<Mnemonic> {};

Instruction sample_operands(const InstrSpec& s, common::Xoshiro256StarStar& rng) {
  Instruction instr;
  instr.mnemonic = s.mnemonic;
  instr.rd = static_cast<RegIndex>(rng.next_index(32));
  instr.rs1 = static_cast<RegIndex>(rng.next_index(32));
  instr.rs2 = static_cast<RegIndex>(rng.next_index(32));
  switch (s.format) {
    case Format::kI: instr.imm = rng.next_range(-2048, 2047); break;
    case Format::kIShift64: instr.imm = rng.next_range(0, 63); break;
    case Format::kIShift32: instr.imm = rng.next_range(0, 31); break;
    case Format::kS: instr.imm = rng.next_range(-2048, 2047); break;
    case Format::kB: instr.imm = rng.next_range(-2048, 2047) * 2; break;
    case Format::kU: instr.imm = rng.next_range(-(1 << 19), (1 << 19) - 1) << 12; break;
    case Format::kJ: instr.imm = rng.next_range(-(1 << 19), (1 << 19) - 1) * 2; break;
    case Format::kCsr:
    case Format::kCsrImm:
      instr.csr = static_cast<std::uint16_t>(rng.next_below(0x1000));
      break;
    case Format::kFence:
      instr.imm = static_cast<std::int64_t>(rng.next_below(0x1000));
      instr.rd = 0;
      instr.rs1 = 0;
      break;
    case Format::kNullary:
      instr.rd = instr.rs1 = instr.rs2 = 0;
      break;
    case Format::kR: break;
  }
  // Formats without certain operands must leave them zero for round-trips.
  if (!s.writes_rd && s.format != Format::kFence) {
    instr.rd = 0;
  }
  if (!s.reads_rs1 && s.format != Format::kCsrImm && s.format != Format::kFence) {
    instr.rs1 = 0;
  }
  if (!s.reads_rs2) {
    instr.rs2 = 0;
  }
  return instr;
}

TEST_P(RoundTrip, EncodeDecodeIsIdentity) {
  const InstrSpec& s = spec(GetParam());
  common::Xoshiro256StarStar rng(0xc0ffee ^ static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 64; ++i) {
    const Instruction instr = sample_operands(s, rng);
    const auto encoded = encode(instr);
    ASSERT_TRUE(encoded.has_value()) << s.name;
    const DecodeResult decoded = decode(*encoded);
    ASSERT_TRUE(decoded.ok()) << s.name << " word=" << std::hex << *encoded;
    EXPECT_EQ(decoded.instr, instr) << s.name;
  }
}

std::vector<Mnemonic> all_mnemonics() {
  std::vector<Mnemonic> v;
  for (const InstrSpec& s : all_specs()) {
    v.push_back(s.mnemonic);
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllInstructions, RoundTrip,
                         ::testing::ValuesIn(all_mnemonics()),
                         [](const ::testing::TestParamInfo<Mnemonic>& param_info) {
                           std::string name(spec(param_info.param).name);
                           for (char& c : name) {
                             if (c == '.') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- encoder validation ----------------------------------------------------------

TEST(Encoder, RejectsOutOfRangeImmediates) {
  EXPECT_FALSE(encodable(make_i(Mnemonic::kAddi, 1, 2, 4000)));
  EXPECT_FALSE(encodable(make_b(Mnemonic::kBeq, 1, 2, 3)));     // odd offset
  EXPECT_FALSE(encodable(make_u(Mnemonic::kLui, 1, 0x123)));    // low bits
  EXPECT_FALSE(encodable(make_i(Mnemonic::kSlli, 1, 2, 64)));   // shamt > 63
}

TEST(Encoder, AcceptsBoundaryImmediates) {
  EXPECT_TRUE(encodable(make_i(Mnemonic::kAddi, 1, 2, -2048)));
  EXPECT_TRUE(encodable(make_i(Mnemonic::kAddi, 1, 2, 2047)));
  EXPECT_TRUE(encodable(make_i(Mnemonic::kSlli, 1, 2, 63)));
}

TEST(EncoderDeathTest, EncodeOrDieNamesWhatItCannotEncode) {
  // lui takes the upper 20 bits only; the low 0x800 cannot be encoded.
  EXPECT_DEATH((void)encode_or_die(lui(6, kDramBase + 0x800)),
               "cannot encode 'lui t1, 0x80000': immediate 2147485696");
}

// --- decoder strictness ------------------------------------------------------------

TEST(Decoder, RejectsCompressedEncodings) {
  EXPECT_EQ(decode(0x00000000).status, DecodeStatus::kNotCompressed);
  EXPECT_EQ(decode(0x00000001).status, DecodeStatus::kNotCompressed);
}

TEST(Decoder, RejectsUnknownMajorOpcode) {
  // opcode 0b1010011 is OP-FP: not implemented in the integer-only model.
  EXPECT_EQ(decode(0b1010011).status, DecodeStatus::kUnknownMajorOpcode);
}

TEST(Decoder, RejectsReservedBranchFunct3) {
  // funct3 = 010 in the branch space is reserved.
  Word w = 0b1100011;
  w = static_cast<Word>(common::insert_bits(w, 12, 3, 0b010));
  EXPECT_EQ(decode(w).status, DecodeStatus::kUnknownFunct3);
}

TEST(Decoder, RejectsReservedFunct7) {
  // ADD with funct7 = 0b1000000 is reserved.
  Word w = encode_or_die(add(1, 2, 3));
  w = static_cast<Word>(common::insert_bits(w, 25, 7, 0b1000000));
  EXPECT_EQ(decode(w).status, DecodeStatus::kUnknownFunct7);
}

TEST(Decoder, RejectsNonCanonicalEcall) {
  // ECALL with rd != 0 is a bad system encoding.
  Word w = encode_or_die(ecall());
  w = set_rd(w, 3);
  EXPECT_EQ(decode(w).status, DecodeStatus::kBadSystemEncoding);
}

TEST(Decoder, AcceptsMretAndWfi) {
  EXPECT_TRUE(decode(encode_or_die(mret())).ok());
  EXPECT_TRUE(decode(encode_or_die(wfi())).ok());
  EXPECT_EQ(decode(encode_or_die(mret())).instr.mnemonic, Mnemonic::kMret);
}

TEST(Decoder, Rv64ShiftShamtBit5IsLegal) {
  // SLLI with shamt 32..63 uses bit 25; must decode on RV64.
  const DecodeResult d = decode(encode_or_die(slli(5, 6, 45)));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.instr.imm, 45);
}

TEST(Decoder, StatusNamesAreDistinct) {
  EXPECT_NE(decode_status_name(DecodeStatus::kOk),
            decode_status_name(DecodeStatus::kUnknownFunct7));
}

// --- CSR defs -----------------------------------------------------------------------

TEST(CsrDefs, ImplementedListIsNamed) {
  const auto list = implemented_csrs();
  for (const CsrAddr addr : list) {
    EXPECT_TRUE(csr_name(addr).has_value());
  }
  EXPECT_EQ(std::find(list.begin(), list.end(), CsrAddr{0x7C0}), list.end());
  EXPECT_FALSE(csr_name(0x7C0).has_value());
}

TEST(CsrDefs, ReadOnlyRanges) {
  EXPECT_TRUE(csr_read_only(csr::kMvendorid));
  EXPECT_TRUE(csr_read_only(csr::kCycle));
  EXPECT_FALSE(csr_read_only(csr::kMstatus));
  EXPECT_FALSE(csr_read_only(csr::kMcycle));
}

// --- disassembler --------------------------------------------------------------------

TEST(Disasm, RendersCommonForms) {
  EXPECT_EQ(disassemble(addi(10, 11, -4)), "addi a0, a1, -4");
  EXPECT_EQ(disassemble(lw(10, 2, 8)), "lw a0, 8(sp)");
  EXPECT_EQ(disassemble(sw(2, 10, 12)), "sw a0, 12(sp)");
  EXPECT_EQ(disassemble(beq(10, 11, 16)), "beq a0, a1, .+16");
  EXPECT_EQ(disassemble(csrrw(10, csr::kMstatus, 11)), "csrrw a0, mstatus, a1");
  EXPECT_EQ(disassemble(ecall()), "ecall");
}

TEST(Disasm, IllegalWordsRenderAsData) {
  const std::string text = disassemble_word(0x00000000);
  EXPECT_NE(text.find(".word"), std::string::npos);
}

TEST(Disasm, UnknownCsrRendersHex) {
  const std::string text = disassemble(csrrs(1, 0x7C0, 0));
  EXPECT_NE(text.find("0x7c0"), std::string::npos);
}

}  // namespace
}  // namespace mabfuzz::isa
