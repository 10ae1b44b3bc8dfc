// Per-mnemonic datapath equivalence: for EVERY instruction in the ISA,
// build directed programs that exercise it with randomised 64-bit operands
// and assert the substrate core's architectural trace is identical to the
// golden ISS trace. This is the unit-level counterpart of the random
// whole-program equivalence suite — it guarantees no mnemonic is
// undersampled.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fuzz/oracle.hpp"
#include "golden/iss.hpp"
#include "isa/builder.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::soc {
namespace {

using namespace isa;  // builders
using common::Xoshiro256StarStar;

/// Emits instructions leaving the sign-extended 32-bit value `v` in `rd`.
void emit_li32(std::vector<Instruction>& program, RegIndex rd, std::int32_t v) {
  const std::int32_t hi = (v + 0x800) & static_cast<std::int32_t>(0xFFFFF000);
  const std::int32_t lo = v - hi;  // always in [-2048, 2047]
  program.push_back(lui(rd, hi));
  program.push_back(addiw(rd, rd, lo));
}

/// Emits instructions leaving an arbitrary 64-bit value in `rd`,
/// clobbering `tmp`.
void emit_li64(std::vector<Instruction>& program, RegIndex rd, RegIndex tmp,
               std::uint64_t v) {
  emit_li32(program, rd, static_cast<std::int32_t>(v >> 32));
  program.push_back(slli(rd, rd, 32));
  emit_li32(program, tmp, static_cast<std::int32_t>(v & 0xffffffff));
  // addiw sign-extended tmp; mask the upper half back off via shifts.
  program.push_back(slli(tmp, tmp, 32));
  program.push_back(srli(tmp, tmp, 32));
  program.push_back(add(rd, rd, tmp));
}

std::uint64_t interesting_value(Xoshiro256StarStar& rng) {
  switch (rng.next_index(6)) {
    case 0: return 0;
    case 1: return ~0ULL;
    case 2: return 1ULL << 63;                      // INT64_MIN
    case 3: return static_cast<std::uint64_t>(-1LL); // all ones again
    case 4: return rng.next() & 0xff;                // small
    default: return rng.next();                      // arbitrary
  }
}

class DatapathEquivalence : public ::testing::TestWithParam<Mnemonic> {
 protected:
  void run_and_compare(const std::vector<Instruction>& program,
                       const char* label) {
    const std::vector<Word> words = assemble(program);
    const RunOutput dut_out = dut_.run(words);
    const ArchResult golden_out = iss_.run(words);
    const auto mismatch = fuzz::compare(dut_out.arch, golden_out);
    ASSERT_FALSE(mismatch.has_value())
        << spec(GetParam()).name << " (" << label
        << "): " << fuzz::describe(*mismatch);
  }

  Pipeline dut_{core_params(CoreKind::kCva6, BugSet::none())};
  golden::Iss iss_{golden_config_for(CoreKind::kCva6)};
};

TEST_P(DatapathEquivalence, RandomOperands) {
  const Mnemonic m = GetParam();
  const InstrSpec& s = spec(m);
  Xoshiro256StarStar rng(0xda7a ^ static_cast<std::uint64_t>(m));

  for (int trial = 0; trial < 24; ++trial) {
    std::vector<Instruction> program;
    const std::uint64_t a = interesting_value(rng);
    const std::uint64_t b = interesting_value(rng);
    emit_li64(program, 1, 31, a);
    emit_li64(program, 2, 31, b);

    switch (s.klass) {
      case InstrClass::kAlu:
      case InstrClass::kAluW:
      case InstrClass::kMulDiv: {
        Instruction instr;
        instr.mnemonic = m;
        instr.rd = 3;
        instr.rs1 = 1;
        instr.rs2 = 2;
        switch (s.format) {
          case Format::kI: instr.imm = rng.next_range(-2048, 2047); break;
          case Format::kIShift64: instr.imm = rng.next_range(0, 63); break;
          case Format::kIShift32: instr.imm = rng.next_range(0, 31); break;
          default: break;
        }
        program.push_back(instr);
        // Use the result so end-state compare sees derived values too.
        program.push_back(xor_(4, 3, 1));
        break;
      }

      case InstrClass::kUpper: {
        const std::int64_t imm20 = rng.next_range(-(1 << 19), (1 << 19) - 1);
        program.push_back(make_u(m, 3, imm20 << 12));
        break;
      }

      case InstrClass::kLoad:
      case InstrClass::kStore: {
        const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
        program.push_back(lui(5, scratch));
        const unsigned bytes = s.access_bytes;
        const std::int64_t offset =
            (rng.next_range(0, 96) / static_cast<std::int64_t>(bytes)) * bytes;
        if (s.klass == InstrClass::kStore) {
          program.push_back(make_s(m, 5, 1, offset));
          program.push_back(ld(6, 5, 0));  // read something back
        } else {
          program.push_back(sd(5, 1, offset & ~7LL));  // give it data
          program.push_back(make_i(m, 6, 5, offset));
        }
        break;
      }

      case InstrClass::kBranch:
        program.push_back(make_b(m, 1, 2, 8));
        program.push_back(addi(7, 0, 111));  // skipped when taken
        program.push_back(addi(8, 0, 222));
        break;

      case InstrClass::kJump:
        if (m == Mnemonic::kJal) {
          program.push_back(jal(9, 8));
          program.push_back(addi(7, 0, 111));
          program.push_back(addi(8, 0, 222));
        } else {
          program.push_back(auipc(5, 0));
          program.push_back(jalr(9, 5, 12));
          program.push_back(addi(7, 0, 111));
          program.push_back(addi(8, 0, 222));
        }
        break;

      case InstrClass::kCsr: {
        static constexpr CsrAddr kTargets[] = {
            csr::kMscratch, csr::kMtvec, csr::kMepc, csr::kMinstret,
            csr::kMisa, csr::kMvendorid, 0x7C1 /* unimplemented */};
        const CsrAddr addr = kTargets[rng.next_index(std::size(kTargets))];
        program.push_back(make_csr(m, 3, addr,
                                   static_cast<RegIndex>(rng.next_index(32))));
        break;
      }

      case InstrClass::kFence:
        program.push_back(m == Mnemonic::kFenceI ? fence_i() : fence());
        break;

      case InstrClass::kSystem: {
        Instruction instr;
        instr.mnemonic = m;
        program.push_back(instr);
        program.push_back(addi(7, 0, 99));  // resumed-after-trap marker
        break;
      }
    }
    run_and_compare(program, "trial");
  }
}

TEST_P(DatapathEquivalence, ZeroRegisterOperands) {
  const Mnemonic m = GetParam();
  const InstrSpec& s = spec(m);
  if (s.klass != InstrClass::kAlu && s.klass != InstrClass::kAluW &&
      s.klass != InstrClass::kMulDiv) {
    GTEST_SKIP() << "x0 corner applies to register-register datapaths";
  }
  // rd = x0 (discard), sources = x0: the zero-register plumbing must match.
  Instruction discard;
  discard.mnemonic = m;
  discard.rd = 0;
  discard.rs1 = 0;
  discard.rs2 = 0;
  if (s.format == Format::kIShift64 || s.format == Format::kIShift32) {
    discard.imm = 1;
  }
  run_and_compare({discard, addi(5, 0, 7)}, "x0 corner");
}

std::vector<Mnemonic> all_mnemonics() {
  std::vector<Mnemonic> v;
  for (const InstrSpec& s : all_specs()) {
    v.push_back(s.mnemonic);
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllInstructions, DatapathEquivalence,
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

}  // namespace
}  // namespace mabfuzz::soc
