#include "fuzz/seedgen.hpp"

#include <array>

#include "isa/builder.hpp"
#include "isa/csr_defs.hpp"
#include "isa/encoder.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::fuzz {

using isa::Instruction;
using isa::Mnemonic;
using isa::RegIndex;

namespace {
// Instruction-class mix (need not be normalised), in next_program's
// dispatch order: alu, muldiv, load, store, branch, jump, upper, csr,
// fence, system, and the LUI/ADDI idiom constructing a valid DRAM address.
constexpr std::array<double, 11> kClassWeights = {34, 8, 12, 10, 8, 3,
                                                  7,  8, 2,  4,  6};
}  // namespace

RegIndex SeedGenerator::random_reg() {
  // x0 occasionally (tests the zero-register datapath), x31 is the trap
  // scratch register and still fair game for seeds.
  return static_cast<RegIndex>(rng_.next_index(32));
}

RegIndex SeedGenerator::random_base_reg() {
  if (!addr_regs_.empty() && rng_.next_bool(0.7)) {
    return addr_regs_[rng_.next_index(addr_regs_.size())];
  }
  return random_reg();
}

std::uint16_t SeedGenerator::random_csr_addr() {
  if (rng_.next_bool(0.7)) {
    // Real DV stimulus leans on the counter CSRs (they are the cheapest
    // architectural observers), so bias toward them.
    if (rng_.next_bool(0.35)) {
      static constexpr std::array<isa::CsrAddr, 5> kCounters = {
          isa::csr::kMcycle, isa::csr::kMinstret, isa::csr::kCycle,
          isa::csr::kTime, isa::csr::kInstret};
      return kCounters[rng_.next_index(kCounters.size())];
    }
    const auto list = isa::implemented_csrs();
    return list[rng_.next_index(list.size())];
  }
  return static_cast<std::uint16_t>(rng_.next_below(0x1000));
}

Instruction SeedGenerator::random_alu() {
  static constexpr std::array<Mnemonic, 24> kOps = {
      Mnemonic::kAddi, Mnemonic::kSlti,  Mnemonic::kSltiu, Mnemonic::kXori,
      Mnemonic::kOri,  Mnemonic::kAndi,  Mnemonic::kSlli,  Mnemonic::kSrli,
      Mnemonic::kSrai, Mnemonic::kAdd,   Mnemonic::kSub,   Mnemonic::kSll,
      Mnemonic::kSlt,  Mnemonic::kSltu,  Mnemonic::kXor,   Mnemonic::kSrl,
      Mnemonic::kSra,  Mnemonic::kOr,    Mnemonic::kAnd,   Mnemonic::kAddiw,
      Mnemonic::kAddw, Mnemonic::kSubw,  Mnemonic::kSllw,  Mnemonic::kSraw,
  };
  const Mnemonic m = kOps[rng_.next_index(kOps.size())];
  const isa::InstrSpec& s = isa::spec(m);
  Instruction instr;
  instr.mnemonic = m;
  instr.rd = random_reg();
  instr.rs1 = random_reg();
  instr.rs2 = random_reg();
  switch (s.format) {
    case isa::Format::kIShift64:
      instr.imm = static_cast<std::int64_t>(rng_.next_index(64));
      break;
    case isa::Format::kIShift32:
      instr.imm = static_cast<std::int64_t>(rng_.next_index(32));
      break;
    case isa::Format::kI:
      instr.imm = rng_.next_range(-2048, 2047);
      break;
    default:
      break;
  }
  return instr;
}

Instruction SeedGenerator::random_muldiv() {
  static constexpr std::array<Mnemonic, 13> kOps = {
      Mnemonic::kMul,   Mnemonic::kMulh,  Mnemonic::kMulhsu, Mnemonic::kMulhu,
      Mnemonic::kDiv,   Mnemonic::kDivu,  Mnemonic::kRem,    Mnemonic::kRemu,
      Mnemonic::kMulw,  Mnemonic::kDivw,  Mnemonic::kDivuw,  Mnemonic::kRemw,
      Mnemonic::kRemuw,
  };
  return isa::make_r(kOps[rng_.next_index(kOps.size())], random_reg(),
                     random_reg(), random_reg());
}

Instruction SeedGenerator::random_load() {
  static constexpr std::array<Mnemonic, 7> kOps = {
      Mnemonic::kLb, Mnemonic::kLh,  Mnemonic::kLw,  Mnemonic::kLd,
      Mnemonic::kLbu, Mnemonic::kLhu, Mnemonic::kLwu,
  };
  // Load-after-store idiom: real code re-reads what it wrote, and the
  // resulting store->evict->reload chains are what shake the write-back
  // path. Otherwise use a tight offset window (stack/buffer locality).
  if (!store_sites_.empty() && rng_.next_bool(0.35)) {
    const StoreSite& site = store_sites_[rng_.next_index(store_sites_.size())];
    return isa::make_i(kOps[rng_.next_index(kOps.size())], random_reg(),
                       site.base, site.offset);
  }
  return isa::make_i(kOps[rng_.next_index(kOps.size())], random_reg(),
                     random_base_reg(), random_mem_offset());
}

std::int64_t SeedGenerator::random_mem_offset() {
  // Mostly naturally-aligned accesses (as compiled code would emit), with
  // a deliberate misaligned minority to poke the alignment traps.
  const std::int64_t offset = rng_.next_range(-96, 96);
  return rng_.next_bool(0.8) ? (offset & ~7LL) : offset;
}

Instruction SeedGenerator::random_store() {
  static constexpr std::array<Mnemonic, 4> kOps = {
      Mnemonic::kSb, Mnemonic::kSh, Mnemonic::kSw, Mnemonic::kSd,
  };
  const isa::RegIndex base = random_base_reg();
  const std::int64_t offset = random_mem_offset();
  store_sites_.push_back(StoreSite{base, offset});
  // Bias store data toward registers known to hold non-zero values, so
  // stores are architecturally observable.
  const isa::RegIndex data =
      !value_regs_.empty() && rng_.next_bool(0.5)
          ? value_regs_[rng_.next_index(value_regs_.size())]
          : random_reg();
  return isa::make_s(kOps[rng_.next_index(kOps.size())], base, data, offset);
}

Instruction SeedGenerator::random_branch(unsigned position, unsigned length) {
  static constexpr std::array<Mnemonic, 6> kOps = {
      Mnemonic::kBeq, Mnemonic::kBne,  Mnemonic::kBlt,
      Mnemonic::kBge, Mnemonic::kBltu, Mnemonic::kBgeu,
  };
  // Mostly short forward skips; occasionally a short backward hop (bounded
  // by the instruction budget if it loops).
  std::int64_t offset;
  if (rng_.next_bool(0.85)) {
    const std::int64_t remaining =
        static_cast<std::int64_t>(length - position);
    offset = 4 * rng_.next_range(1, std::max<std::int64_t>(1, std::min<std::int64_t>(remaining, 8)));
  } else {
    offset = -4 * rng_.next_range(1, std::min<std::int64_t>(position + 1, 4));
  }
  return isa::make_b(kOps[rng_.next_index(kOps.size())], random_reg(),
                     random_reg(), offset);
}

Instruction SeedGenerator::random_jump(unsigned position, unsigned length) {
  if (rng_.next_bool(0.7)) {
    const std::int64_t remaining = static_cast<std::int64_t>(length - position);
    const std::int64_t offset =
        4 * rng_.next_range(1, std::max<std::int64_t>(1, std::min<std::int64_t>(remaining, 6)));
    return isa::jal(random_reg(), offset);
  }
  // JALR through a pointer-ish register: lands wherever the register points.
  return isa::jalr(random_reg(), random_base_reg(), rng_.next_range(-64, 64));
}

Instruction SeedGenerator::random_upper() {
  if (rng_.next_bool(0.5)) {
    // Uniform U-immediates, sign-extending like RV64 LUI.
    const std::int64_t imm20 = rng_.next_range(-(1 << 19), (1 << 19) - 1);
    return isa::lui(random_reg(), imm20 << 12);
  }
  const std::int64_t imm20 = rng_.next_range(-(1 << 19), (1 << 19) - 1);
  return isa::auipc(random_reg(), imm20 << 12);
}

Instruction SeedGenerator::random_csr() {
  static constexpr std::array<Mnemonic, 6> kOps = {
      Mnemonic::kCsrrw,  Mnemonic::kCsrrs,  Mnemonic::kCsrrc,
      Mnemonic::kCsrrwi, Mnemonic::kCsrrsi, Mnemonic::kCsrrci,
  };
  return isa::make_csr(kOps[rng_.next_index(kOps.size())], random_reg(),
                       random_csr_addr(), random_reg());
}

Instruction SeedGenerator::random_fence() {
  if (rng_.next_bool(0.5)) {
    return isa::fence_i();
  }
  return isa::fence();
}

Instruction SeedGenerator::random_system() {
  switch (rng_.next_index(4)) {
    case 0: return isa::ecall();
    case 1: return isa::ebreak();
    case 2: return isa::wfi();
    default: return isa::mret();
  }
}

std::vector<isa::Word> SeedGenerator::next_program(unsigned length) {
  if (length == 0) {
    length = kSeedLength;
  }
  addr_regs_.clear();
  value_regs_.clear();
  store_sites_.clear();
  std::vector<Instruction> program;
  program.reserve(length);

  // Like TheHuzz's seed templates, tests begin with a short preamble:
  // a few registers get random non-zero constants (so downstream values,
  // branch conditions and store data are interesting), and most tests
  // materialise a data pointer so memory instructions hit real DRAM.
  unsigned start = 0;
  if (length >= 8) {
    const unsigned inits = 2 + static_cast<unsigned>(rng_.next_index(3));
    for (unsigned k = 0; k < inits; ++k) {
      const RegIndex rv = static_cast<RegIndex>(1 + rng_.next_index(30));
      std::int64_t imm = rng_.next_range(-2048, 2047);
      if (imm == 0) {
        imm = 1;
      }
      program.push_back(isa::li(rv, imm));
      value_regs_.push_back(rv);
      ++start;
    }
    if (rng_.next_bool(0.6)) {
      const RegIndex rx = static_cast<RegIndex>(1 + rng_.next_index(30));
      const std::int64_t scratch_hi =
          static_cast<std::int64_t>(static_cast<std::int32_t>(
              isa::kScratchBase & 0xffff'f000ULL));
      program.push_back(isa::lui(rx, scratch_hi));
      program.push_back(isa::addiw(rx, rx, rng_.next_range(0, 2040) & ~0x7LL));
      addr_regs_.push_back(rx);
      start += 2;
    }
  }

  for (unsigned i = start; i < length; ++i) {
    switch (rng_.next_weighted(kClassWeights)) {
      case 0: program.push_back(random_alu()); break;
      case 1: program.push_back(random_muldiv()); break;
      case 2: program.push_back(random_load()); break;
      case 3: program.push_back(random_store()); break;
      case 4: program.push_back(random_branch(i, length)); break;
      case 5: program.push_back(random_jump(i, length)); break;
      case 6: program.push_back(random_upper()); break;
      case 7: program.push_back(random_csr()); break;
      case 8: program.push_back(random_fence()); break;
      case 9: program.push_back(random_system()); break;
      default: {
        // Address-setup idiom: rX = &scratch + small offset. Takes two
        // instruction slots when room remains.
        const RegIndex rx = static_cast<RegIndex>(1 + rng_.next_index(30));
        const std::int64_t scratch_hi =
            static_cast<std::int64_t>(isa::kScratchBase & 0xffff'f000ULL);
        // LUI sign-extends from bit 31; DRAM addresses (0x8001xxxx) need the
        // negative representation trick: lui sees 0x80010000 as negative,
        // but adding to x0 keeps the low 32 bits right and the cores ignore
        // upper bits via the ADDIW normalisation below.
        program.push_back(isa::lui(rx, static_cast<std::int64_t>(
                                           static_cast<std::int32_t>(scratch_hi))));
        if (i + 1 < length) {
          ++i;
          program.push_back(isa::addiw(
              rx, rx, rng_.next_range(0, 1024) & ~0x7LL));
        }
        addr_regs_.push_back(rx);
        break;
      }
    }
  }
  return isa::assemble(program);
}

}  // namespace mabfuzz::fuzz
