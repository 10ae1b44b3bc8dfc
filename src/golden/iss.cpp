#include "golden/iss.hpp"

#include <algorithm>
#include <limits>

#include "common/bitops.hpp"
#include "isa/decoder.hpp"
#include "isa/encoder.hpp"

namespace mabfuzz::golden {

using common::sext32;
using isa::ArchResult;
using isa::CommitRecord;
using isa::HaltReason;
using isa::Instruction;
using isa::Mnemonic;
using isa::TrapCause;
using isa::Word;

namespace {

__extension__ using Int128 = __int128;
__extension__ using Uint128 = unsigned __int128;

constexpr std::uint64_t kI64Min = 1ULL << 63;

std::uint64_t mulh_ss(std::uint64_t a, std::uint64_t b) {
  const Int128 p = static_cast<Int128>(static_cast<std::int64_t>(a)) *
                     static_cast<Int128>(static_cast<std::int64_t>(b));
  return static_cast<std::uint64_t>(static_cast<Uint128>(p) >> 64);
}

std::uint64_t mulh_su(std::uint64_t a, std::uint64_t b) {
  const Int128 p = static_cast<Int128>(static_cast<std::int64_t>(a)) *
                     static_cast<Int128>(static_cast<Uint128>(b));
  return static_cast<std::uint64_t>(static_cast<Uint128>(p) >> 64);
}

std::uint64_t mulh_uu(std::uint64_t a, std::uint64_t b) {
  const Uint128 p =
      static_cast<Uint128>(a) * static_cast<Uint128>(b);
  return static_cast<std::uint64_t>(p >> 64);
}

std::uint64_t div_signed(std::uint64_t a, std::uint64_t b) {
  if (b == 0) {
    return ~0ULL;  // quotient of all ones
  }
  if (a == kI64Min && static_cast<std::int64_t>(b) == -1) {
    return kI64Min;  // overflow
  }
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) /
                                    static_cast<std::int64_t>(b));
}

std::uint64_t rem_signed(std::uint64_t a, std::uint64_t b) {
  if (b == 0) {
    return a;
  }
  if (a == kI64Min && static_cast<std::int64_t>(b) == -1) {
    return 0;
  }
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) %
                                    static_cast<std::int64_t>(b));
}

std::uint64_t div32_signed(std::uint64_t a, std::uint64_t b) {
  const auto x = static_cast<std::int32_t>(a);
  const auto y = static_cast<std::int32_t>(b);
  if (y == 0) {
    return static_cast<std::uint64_t>(-1LL);
  }
  if (x == std::numeric_limits<std::int32_t>::min() && y == -1) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
  }
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(x / y));
}

std::uint64_t rem32_signed(std::uint64_t a, std::uint64_t b) {
  const auto x = static_cast<std::int32_t>(a);
  const auto y = static_cast<std::int32_t>(b);
  if (y == 0) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
  }
  if (x == std::numeric_limits<std::int32_t>::min() && y == -1) {
    return 0;
  }
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(x % y));
}

}  // namespace

Iss::Iss(IssConfig config)
    : config_(config), memory_(isa::kDramBase, config.dram_size), csrs_(config.identity) {}

void Iss::reset_hart() noexcept {
  regs_.fill(0);
  csrs_.reset();
  pc_ = isa::kProgramBase;
  instret_ = 0;
}

void Iss::load(const std::vector<Word>& program) {
  // Dirty-region reset: only the pages the previous test touched are
  // zeroed (observationally identical to a full clear).
  memory_.reset();
  memory_.write_words(isa::kHandlerBase, isa::assembled_trap_handler());
  memory_.write_words(isa::kProgramBase, program);
  sentinel_pc_ = isa::kProgramBase + program.size() * 4;
  // End-of-test sentinel: jal x0, 0 (self-loop); the run halts on reaching it.
  memory_.store(sentinel_pc_, isa::halt_sentinel_word(), 4);
}

void Iss::write_reg(isa::RegIndex rd, std::uint64_t value, CommitRecord& record) noexcept {
  rd &= 0x1f;
  if (rd == 0) {
    return;
  }
  regs_[rd] = value;
  record.wrote_rd = true;
  record.rd = rd;
  record.rd_value = value;
}

ArchResult Iss::run(const std::vector<Word>& program) {
  ArchResult result;
  run_impl(program, nullptr, result, {});
  return result;
}

void Iss::run(const std::vector<Word>& program, ArchResult& out) {
  run_impl(program, nullptr, out, {});
}

void Iss::run(const std::vector<Word>& program, isa::DecodedProgram& decoded,
              ArchResult& out) {
  run_impl(program, &decoded, out, {});
}

std::size_t Iss::check(const std::vector<Word>& program, isa::DecodedProgram& decoded,
                       std::span<const CommitRecord> dut, ArchResult& out) {
  return run_impl(program, &decoded, out, dut);
}

std::size_t Iss::run_impl(const std::vector<Word>& program,
                          isa::DecodedProgram* decoded_program, ArchResult& result,
                          std::span<const CommitRecord> expected) {
  load(program);
  reset_hart();

  result.commits.clear();
  result.halt = HaltReason::kBudget;

  // The index of the first record that differs from `expected`, once found.
  constexpr std::size_t kAgreed = ~std::size_t{0};
  std::size_t diverged = kAgreed;
  auto differs_at = [&](const CommitRecord& record, std::size_t index) {
    return index < expected.size() && isa::differs(record, expected[index]);
  };

  probe_.begin_test(decoded_program != nullptr);
  sled_.begin_test(decoded_program != nullptr);
  std::uint64_t next_probe = probe_.next_step();
  for (std::uint64_t step = 0; step < config_.instruction_budget; ++step) {
    if (step == next_probe) [[unlikely]] {
      const std::uint64_t from = step;
      step += probe(result);
      // A replayed sled or loop period is checked like stepped records.
      const std::uint64_t checked_to = std::min<std::uint64_t>(step, expected.size());
      for (std::uint64_t i = from; i < checked_to; ++i) {
        if (isa::differs(result.commits[i], expected[i])) {
          diverged = i;
          break;
        }
      }
      if (diverged != kAgreed) {
        break;
      }
      next_probe = std::min(probe_.next_step(), sled_.next_step());
      if (step == config_.instruction_budget) {
        break;
      }
    }
    if (pc_ == sentinel_pc_) {
      result.halt = HaltReason::kSentinel;
      break;
    }
    if ((pc_ & 0b11) != 0) {
      // Misaligned fetch: a pseudo-commit records the trap; no instruction
      // is fetched or counted.
      CommitRecord record;
      record.pc = pc_;
      record.trapped = true;
      record.cause = static_cast<std::uint64_t>(TrapCause::kInstrAddrMisaligned);
      result.commits.push_back(record);
      if (differs_at(record, step)) {
        diverged = step;
        break;
      }
      csrs_.enter_trap(pc_, TrapCause::kInstrAddrMisaligned, pc_);
      pc_ = csrs_.mtvec();
      continue;
    }
    Word word = 0;
    if (!memory_.fetch(pc_, word)) {
      result.halt = HaltReason::kFetchOutOfRange;
      break;
    }

    // The record is built in place: a local copied in by push_back would
    // be reloaded in 16-byte chunks over its byte-sized flag stores, a
    // store-forwarding stall on every commit.
    CommitRecord& record = result.commits.emplace_back();
    record.pc = pc_;
    record.word = word;

    // Counting convention: every fetched instruction counts,
    // including ones that trap. The V7 bug deviates from this on EBREAK.
    ++instret_;

    // Bind a reference on the cached path — a cache hit must not pay a
    // per-commit DecodeResult copy.
    isa::DecodeResult decoded_storage;
    const isa::DecodeResult& decoded =
        decoded_program != nullptr ? decoded_program->lookup(word)
                                   : (decoded_storage = isa::decode(word));
    StepOutcome outcome;
    outcome.next_pc = pc_ + 4;
    if (!decoded.ok()) {
      outcome.has_trap = true;
      outcome.trap = Trap{TrapCause::kIllegalInstruction, word};
    } else {
      execute(decoded.instr, word, record, outcome);
    }

    if (outcome.has_trap) {
      // A trapping instruction commits no rd/memory effects.
      record.wrote_rd = false;
      record.wrote_mem = false;
      record.trapped = true;
      record.cause = static_cast<std::uint64_t>(outcome.trap.cause);
      csrs_.enter_trap(pc_, outcome.trap.cause, outcome.trap.tval);
      pc_ = csrs_.mtvec();
      if (word == 0) {
        sled_.trapped(step);
        next_probe = std::min(next_probe, sled_.next_step());
      }
    } else {
      pc_ = outcome.next_pc;
    }
    if (differs_at(record, step)) [[unlikely]] {
      diverged = step;
      break;
    }
  }

  result.regs = regs_;
  result.instret = instret_;
  result.mstatus = csrs_.mstatus();
  result.mepc = csrs_.mepc();
  result.mcause = csrs_.mcause();
  result.mtval = csrs_.mtval();
  result.mtvec = csrs_.mtvec();
  result.mscratch = csrs_.mscratch();
  return diverged != kAgreed ? diverged
                             : std::min(result.commits.size(), expected.size());
}

std::uint64_t Iss::probe(ArchResult& out) {
  std::uint64_t skipped = 0;
  if (out.commits.size() == sled_.next_step()) {
    skipped = replay_sled(out);
    probe_.jumped(out.commits.size());
  }
  if (out.commits.size() == probe_.next_step()) {
    skipped += probe_loop(out);
  }
  return skipped;
}

std::uint64_t Iss::replay_sled(ArchResult& out) {
  auto fetch = [this](std::uint64_t addr, Word& word) {
    return memory_.fetch(addr, word);
  };
  if (!sled_.entered(out.commits, pc_) || csrs_.mtvec() != isa::kHandlerBase ||
      !isa::TrapSled::handler_intact(fetch)) {
    return 0;
  }
  const std::uint64_t words = isa::TrapSled::extent(
      pc_, config_.instruction_budget - out.commits.size(), sentinel_pc_, fetch);
  if (words == 0) {
    return 0;
  }
  // Word k commits the trap at X + 4k and the stub, which leaves t6, mepc
  // and the next pc at X + 4k + 4. mcause, mtval and mstatus stay as the
  // stepped words left them.
  isa::TrapSled::append(out.commits, pc_, words);
  pc_ += 4 * words;
  regs_[isa::kTrapScratchReg] = pc_;
  (void)csrs_.write(isa::csr::kMepc, pc_);
  const std::uint64_t steps = words * isa::TrapSled::kWordCommits;
  instret_ += steps;
  sled_steps_ += steps;
  return steps;
}

std::uint64_t Iss::probe_loop(ArchResult& out) {
  if (probe_.confirming()) {
    if (!probe_.period_reads_counter(out.commits) && pc_ == loop_start_.pc &&
        regs_ == loop_start_.regs && csrs_ == loop_start_.csrs &&
        memory_.changes() == loop_start_.memory_changes) {
      const std::uint64_t copies =
          probe_.replicate(out.commits, config_.instruction_budget);
      instret_ += copies * (instret_ - loop_start_.instret);
      const std::uint64_t skipped = copies * probe_.period();
      skipped_steps_ += skipped;
      return skipped;
    }
    probe_.reject();
    return 0;
  }
  if (probe_.scan(out.commits, pc_)) {
    loop_start_.pc = pc_;
    loop_start_.regs = regs_;
    loop_start_.csrs = csrs_;
    loop_start_.memory_changes = memory_.changes();
    loop_start_.instret = instret_;
  }
  return 0;
}

void Iss::execute(const Instruction& instr, Word word, CommitRecord& record,
                  StepOutcome& out) {
  const std::uint64_t a = reg(instr.rs1);
  const std::uint64_t b = reg(instr.rs2);
  const auto imm = static_cast<std::uint64_t>(instr.imm);

  auto trap = [&](TrapCause cause, std::uint64_t tval) {
    out.has_trap = true;
    out.trap = Trap{cause, tval};
  };

  auto do_load = [&](unsigned bytes, bool is_unsigned) {
    const std::uint64_t addr = a + imm;
    if (bytes > 1 && (addr & (bytes - 1)) != 0) {
      return trap(TrapCause::kLoadAddrMisaligned, addr);
    }
    const auto value = memory_.load(addr, bytes);
    if (!value) {
      return trap(TrapCause::kLoadAccessFault, addr);
    }
    const std::uint64_t extended =
        is_unsigned ? *value
                    : static_cast<std::uint64_t>(
                          common::sign_extend(*value, 8 * bytes));
    write_reg(instr.rd, extended, record);
  };

  auto do_store = [&](unsigned bytes) {
    const std::uint64_t addr = a + imm;
    if (bytes > 1 && (addr & (bytes - 1)) != 0) {
      return trap(TrapCause::kStoreAddrMisaligned, addr);
    }
    const std::uint64_t value = b & common::low_mask(8 * bytes);
    if (!memory_.store(addr, value, bytes)) {
      return trap(TrapCause::kStoreAccessFault, addr);
    }
    record.wrote_mem = true;
    record.mem_addr = addr;
    record.mem_value = value;
    record.mem_bytes = bytes;
  };

  auto branch = [&](bool taken) {
    if (taken) {
      out.next_pc = pc_ + imm;
    }
  };

  auto wr = [&](std::uint64_t value) { write_reg(instr.rd, value, record); };

  switch (instr.mnemonic) {
    case Mnemonic::kLui: return wr(imm);
    case Mnemonic::kAuipc: return wr(pc_ + imm);
    case Mnemonic::kJal: {
      write_reg(instr.rd, pc_ + 4, record);
      out.next_pc = pc_ + imm;
      return;
    }
    case Mnemonic::kJalr: {
      const std::uint64_t target = (a + imm) & ~1ULL;
      write_reg(instr.rd, pc_ + 4, record);
      out.next_pc = target;
      return;
    }
    case Mnemonic::kBeq: return branch(a == b);
    case Mnemonic::kBne: return branch(a != b);
    case Mnemonic::kBlt:
      return branch(static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b));
    case Mnemonic::kBge:
      return branch(static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b));
    case Mnemonic::kBltu: return branch(a < b);
    case Mnemonic::kBgeu: return branch(a >= b);

    case Mnemonic::kLb: return do_load(1, false);
    case Mnemonic::kLh: return do_load(2, false);
    case Mnemonic::kLw: return do_load(4, false);
    case Mnemonic::kLd: return do_load(8, false);
    case Mnemonic::kLbu: return do_load(1, true);
    case Mnemonic::kLhu: return do_load(2, true);
    case Mnemonic::kLwu: return do_load(4, true);
    case Mnemonic::kSb: return do_store(1);
    case Mnemonic::kSh: return do_store(2);
    case Mnemonic::kSw: return do_store(4);
    case Mnemonic::kSd: return do_store(8);

    case Mnemonic::kAddi: return wr(a + imm);
    case Mnemonic::kSlti:
      return wr(static_cast<std::int64_t>(a) < static_cast<std::int64_t>(imm) ? 1 : 0);
    case Mnemonic::kSltiu: return wr(a < imm ? 1 : 0);
    case Mnemonic::kXori: return wr(a ^ imm);
    case Mnemonic::kOri: return wr(a | imm);
    case Mnemonic::kAndi: return wr(a & imm);
    case Mnemonic::kSlli: return wr(a << (imm & 0x3f));
    case Mnemonic::kSrli: return wr(a >> (imm & 0x3f));
    case Mnemonic::kSrai:
      return wr(static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> (imm & 0x3f)));

    case Mnemonic::kAdd: return wr(a + b);
    case Mnemonic::kSub: return wr(a - b);
    case Mnemonic::kSll: return wr(a << (b & 0x3f));
    case Mnemonic::kSlt:
      return wr(static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b) ? 1 : 0);
    case Mnemonic::kSltu: return wr(a < b ? 1 : 0);
    case Mnemonic::kXor: return wr(a ^ b);
    case Mnemonic::kSrl: return wr(a >> (b & 0x3f));
    case Mnemonic::kSra:
      return wr(static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> (b & 0x3f)));
    case Mnemonic::kOr: return wr(a | b);
    case Mnemonic::kAnd: return wr(a & b);

    case Mnemonic::kAddiw: return wr(static_cast<std::uint64_t>(sext32(a + imm)));
    case Mnemonic::kSlliw:
      return wr(static_cast<std::uint64_t>(sext32(a << (imm & 0x1f))));
    case Mnemonic::kSrliw:
      return wr(static_cast<std::uint64_t>(
          sext32(static_cast<std::uint32_t>(a) >> (imm & 0x1f))));
    case Mnemonic::kSraiw:
      return wr(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int32_t>(a) >> (imm & 0x1f))));
    case Mnemonic::kAddw: return wr(static_cast<std::uint64_t>(sext32(a + b)));
    case Mnemonic::kSubw: return wr(static_cast<std::uint64_t>(sext32(a - b)));
    case Mnemonic::kSllw:
      return wr(static_cast<std::uint64_t>(sext32(a << (b & 0x1f))));
    case Mnemonic::kSrlw:
      return wr(static_cast<std::uint64_t>(
          sext32(static_cast<std::uint32_t>(a) >> (b & 0x1f))));
    case Mnemonic::kSraw:
      return wr(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int32_t>(a) >> (b & 0x1f))));

    case Mnemonic::kMul: return wr(a * b);
    case Mnemonic::kMulh: return wr(mulh_ss(a, b));
    case Mnemonic::kMulhsu: return wr(mulh_su(a, b));
    case Mnemonic::kMulhu: return wr(mulh_uu(a, b));
    case Mnemonic::kDiv: return wr(div_signed(a, b));
    case Mnemonic::kDivu: return wr(b == 0 ? ~0ULL : a / b);
    case Mnemonic::kRem: return wr(rem_signed(a, b));
    case Mnemonic::kRemu: return wr(b == 0 ? a : a % b);
    case Mnemonic::kMulw: return wr(static_cast<std::uint64_t>(sext32(a * b)));
    case Mnemonic::kDivw: return wr(div32_signed(a, b));
    case Mnemonic::kDivuw: {
      const auto x = static_cast<std::uint32_t>(a);
      const auto y = static_cast<std::uint32_t>(b);
      return wr(y == 0 ? ~0ULL : static_cast<std::uint64_t>(sext32(x / y)));
    }
    case Mnemonic::kRemw: return wr(rem32_signed(a, b));
    case Mnemonic::kRemuw: {
      const auto x = static_cast<std::uint32_t>(a);
      const auto y = static_cast<std::uint32_t>(b);
      return wr(static_cast<std::uint64_t>(sext32(y == 0 ? x : x % y)));
    }

    case Mnemonic::kFence:
    case Mnemonic::kFenceI:
      return;  // coherent memory model: fences are architectural no-ops

    case Mnemonic::kEcall: return trap(TrapCause::kEcallFromM, 0);
    case Mnemonic::kEbreak: return trap(TrapCause::kBreakpoint, pc_);
    case Mnemonic::kMret:
      out.next_pc = csrs_.take_mret();
      return;
    case Mnemonic::kWfi:
      return;  // no interrupt sources: WFI is a no-op

    case Mnemonic::kCsrrw:
    case Mnemonic::kCsrrs:
    case Mnemonic::kCsrrc:
    case Mnemonic::kCsrrwi:
    case Mnemonic::kCsrrsi:
    case Mnemonic::kCsrrci:
      return execute_csr(instr, word, record, out);

    case Mnemonic::kCount:
      break;
  }
  return trap(TrapCause::kIllegalInstruction, word);
}

void Iss::execute_csr(const Instruction& instr, Word word, CommitRecord& record,
                      StepOutcome& out) {
  auto illegal = [&] {
    out.has_trap = true;
    out.trap = Trap{TrapCause::kIllegalInstruction, word};
  };

  const bool is_imm_form = instr.mnemonic == Mnemonic::kCsrrwi ||
                           instr.mnemonic == Mnemonic::kCsrrsi ||
                           instr.mnemonic == Mnemonic::kCsrrci;
  const std::uint64_t operand =
      is_imm_form ? (instr.rs1 & 0x1f) : reg(instr.rs1);
  const bool is_write_form = instr.mnemonic == Mnemonic::kCsrrw ||
                             instr.mnemonic == Mnemonic::kCsrrwi;
  // CSRRS/CSRRC with rs1=x0 (zimm=0) perform no write.
  const bool writes = is_write_form || instr.rs1 != 0;

  std::uint64_t old = 0;
  if (!csrs_.read(instr.csr, instret_, old)) {
    return illegal();
  }
  if (writes) {
    std::uint64_t new_value = operand;
    if (instr.mnemonic == Mnemonic::kCsrrs || instr.mnemonic == Mnemonic::kCsrrsi) {
      new_value = old | operand;
    } else if (instr.mnemonic == Mnemonic::kCsrrc ||
               instr.mnemonic == Mnemonic::kCsrrci) {
      new_value = old & ~operand;
    }
    if (csrs_.write(instr.csr, new_value) == CsrFile::WriteResult::kIllegal) {
      return illegal();
    }
  }
  write_reg(instr.rd, old, record);
}

}  // namespace mabfuzz::golden
