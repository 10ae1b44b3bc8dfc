#include "soc/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "isa/decoder.hpp"
#include "isa/encoder.hpp"

namespace mabfuzz::soc {

using isa::CommitRecord;
using isa::HaltReason;
using isa::Instruction;
using isa::InstrClass;
using isa::InstrSpec;
using isa::Mnemonic;
using isa::TrapCause;
using isa::Word;

namespace {
constexpr unsigned kNumInstrClasses = 11;
// Fetch cycles on an I$ hit and on a miss.
constexpr unsigned kFetchHitCycles = 1;
constexpr unsigned kFetchMissCycles = 3;
// One fetch-region coverage point per 4 KiB of DRAM.
constexpr unsigned kFetchRegionShift = 12;

/// Every core has a power-of-two lane count and DRAM size, so the lane and
/// fetch-region choices are masks; anything else is refused up front. The
/// decode and execute units index their coverage by that lane unchecked.
PipelineParams validated(PipelineParams params) {
  if (!std::has_single_bit(params.lanes)) {
    throw std::invalid_argument("PipelineParams::lanes = " +
                                std::to_string(params.lanes) +
                                " must be a power of two");
  }
  if (params.decode.lanes != params.lanes ||
      params.exec.lanes != params.lanes) {
    throw std::invalid_argument(
        "PipelineParams: decode.lanes and exec.lanes must equal lanes = " +
        std::to_string(params.lanes));
  }
  if (!std::has_single_bit(params.dram_size) ||
      params.dram_size < (std::uint64_t{1} << kFetchRegionShift)) {
    throw std::invalid_argument("PipelineParams::dram_size = " +
                                std::to_string(params.dram_size) +
                                " must be a power of two of at least 4096");
  }
  return params;
}
}  // namespace

Pipeline::Pipeline(PipelineParams params)
    : params_(validated(std::move(params))),
      memory_(isa::kDramBase, params_.dram_size),
      icache_(params_.icache, ctx_),
      dcache_(params_.dcache, ctx_, params_.dram_size),
      predictor_(params_.predictor, ctx_),
      scoreboard_(ctx_),
      rob_(params_.rob_slots, ctx_),
      csrs_(params_.identity, params_.bugs, ctx_),
      decode_(params_.decode, params_.bugs, ctx_),
      exec_(params_.exec, ctx_),
      lsu_(params_.lsu, params_.bugs, ctx_),
      probe_(params_.lanes),
      sled_(params_.lanes),
      sled_addi_(isa::decode(isa::assembled_trap_handler()[1]).instr),
      sled_csrrw_(isa::decode(isa::assembled_trap_handler()[2]).instr) {
  auto& reg = ctx_.registry();
  const auto fetch_regions =
      static_cast<unsigned>(params_.dram_size >> kFetchRegionShift);
  fetch_region_mask_ = fetch_regions - 1;
  lane_mask_ = params_.lanes - 1;
  cov_fetch_region_ = reg.add_array("pipeline/fetch_region", fetch_regions);
  cov_fetch_handler_ = reg.add("pipeline/fetch_in_handler");
  cov_fetch_selfmod_ = reg.add("pipeline/fetch_from_dirty_line");
  cov_fetch_misaligned_ = reg.add("pipeline/fetch_misaligned");
  if (params_.lanes >= 2) {
    cov_pair_ = reg.add_array("pipeline/issue_pair_class",
                              kNumInstrClasses * kNumInstrClasses);
    cov_dual_ = reg.add_array("pipeline/dual_issue_outcome", 4);
  }
  cov_halt_ = reg.add_array("pipeline/halt_reason", 3);
  cov_branch_dir_ = reg.add_array("pipeline/branch_dir", 4);
  cov_wild_jump_ = reg.add("pipeline/wild_jump");
  // Back-to-back instruction sequences exercise distinct forwarding /
  // unit-handoff paths: one point per (previous, current) mnemonic pair.
  // This is the structural mass that *seed diversity* (not bit-level
  // mutation of one lineage) is best at covering.
  cov_seq_pair_ = reg.add_array("pipeline/seq_pair",
                                isa::kNumMnemonics * isa::kNumMnemonics);
  ctx_.freeze();
}

void Pipeline::cold_reset(const std::vector<Word>& program) {
  // Dirty-region reset: only the pages the previous test touched (program
  // image, handler, store targets, cache writebacks) are zeroed.
  memory_.reset();
  memory_.write_words(isa::kHandlerBase, isa::assembled_trap_handler());
  memory_.write_words(isa::kProgramBase, program);
  sentinel_pc_ = isa::kProgramBase + program.size() * 4;
  memory_.store(sentinel_pc_, isa::halt_sentinel_word(), 4);

  icache_.reset();
  dcache_.reset();
  predictor_.reset();
  scoreboard_.reset();
  rob_.reset();
  csrs_.reset();
  regs_.fill(0);
  pc_ = isa::kProgramBase;
  instret_ = 0;
  cycle_ = 0;
  have_prev_issue_ = false;
  prev_rd_ = 0;
  have_prev_mnemonic_ = false;
}

bool Pipeline::fetch_word(std::uint64_t addr, coverage::Context& ctx, Word& word) {
  if (!memory_.fetch(addr, word)) {
    return false;
  }
  if (addr >= isa::kDramBase) {
    const std::uint64_t region = (addr - isa::kDramBase) >> kFetchRegionShift;
    ctx.hit(cov_fetch_region_,
            static_cast<std::size_t>(region & fetch_region_mask_));
  }
  if (addr >= isa::kHandlerBase && addr < isa::kProgramBase) {
    ctx.hit(cov_fetch_handler_);
  }
  // Coherent fetch: a D$ line holding the address, clean or dirty, wins
  // over DRAM (unified-L2 behaviour), so self-modifying code matches the
  // golden model.
  if (std::uint64_t snooped = 0; dcache_.snoop(addr, 4, snooped)) {
    ctx.hit(cov_fetch_selfmod_);
    word = static_cast<Word>(snooped);
  }
  return true;
}

bool Pipeline::peek_word(std::uint64_t addr, Word& word) const noexcept {
  if (!memory_.fetch(addr, word)) {
    return false;
  }
  if (std::uint64_t snooped = 0; dcache_.snoop(addr, 4, snooped)) {
    word = static_cast<Word>(snooped);
  }
  return true;
}

bool Pipeline::queued_illegal_ahead(std::uint64_t pc) {
  for (unsigned depth = 1; depth <= 3; ++depth) {
    Word word = 0;
    if (!peek_word(pc + 4 * depth, word)) {
      break;
    }
    // All-zero words are frontend bubbles (uninitialised DRAM past the
    // program image), squashed before pre-decode — they carry no exception.
    if (word == 0) {
      continue;
    }
    // Only the LSU pre-decode path tags queued exceptions early enough to
    // race the older trap's cause: a mis-encoded LOAD/STORE major opcode.
    const Word major = isa::opcode_field(word);
    if ((major == 0b0000011 || major == 0b0100011) && !isa::decode(word).ok()) {
      return true;
    }
  }
  return false;
}

void Pipeline::write_reg(isa::RegIndex rd, std::uint64_t value, unsigned latency,
                         StepState& step) {
  rd &= 0x1f;
  if (rd == 0) {
    return;
  }
  regs_[rd] = value;
  step.record.wrote_rd = true;
  step.record.rd = rd;
  step.record.rd_value = value;
  scoreboard_.mark_write(rd, cycle_ + latency, ctx_);
}

void Pipeline::note_pair_issue(InstrClass klass, bool raw_dependent,
                               coverage::Context& ctx) {
  if (params_.lanes < 2) {
    return;
  }
  if (have_prev_issue_) {
    const auto pair = static_cast<std::size_t>(prev_klass_) * kNumInstrClasses +
                      static_cast<std::size_t>(klass);
    ctx.hit(cov_pair_, pair);
    if (raw_dependent) {
      ctx.hit(cov_dual_, 1);  // serialised on RAW dependency
    } else if (prev_klass_ == klass) {
      ctx.hit(cov_dual_, 2);  // structural conflict on the same unit type
    } else if (klass == InstrClass::kBranch || klass == InstrClass::kJump) {
      ctx.hit(cov_dual_, 3);  // control split
    } else {
      ctx.hit(cov_dual_, 0);  // dual-issued
    }
  }
  have_prev_issue_ = true;
  prev_klass_ = klass;
}

RunOutput Pipeline::run(const std::vector<Word>& program) {
  RunOutput out;
  run_impl(program, nullptr, out);
  return out;
}

void Pipeline::run(const std::vector<Word>& program, RunOutput& out) {
  run_impl(program, nullptr, out);
}

void Pipeline::run(const std::vector<Word>& program, isa::DecodedProgram& decoded,
                   RunOutput& out) {
  run_impl(program, &decoded, out);
}

void Pipeline::run_impl(const std::vector<Word>& program,
                        isa::DecodedProgram* decoded_program, RunOutput& out) {
  ctx_.begin_test();
  cold_reset(program);

  out.arch.commits.clear();
  out.firings.clear();
  out.arch.halt = HaltReason::kBudget;

  probe_.begin_test(decoded_program != nullptr);
  sled_.begin_test(decoded_program != nullptr);
  std::uint64_t next_probe = probe_.next_step();
  for (std::uint64_t step_count = 0; step_count < params_.instruction_budget;
       ++step_count) {
    if (step_count == next_probe) [[unlikely]] {
      step_count += probe(out);
      next_probe = std::min(probe_.next_step(), sled_.next_step());
      if (step_count == params_.instruction_budget) {
        break;
      }
    }
    if (pc_ == sentinel_pc_) {
      out.arch.halt = HaltReason::kSentinel;
      ctx_.hit(cov_halt_, 0);
      break;
    }
    if ((pc_ & 0b11) != 0) {
      ctx_.hit(cov_fetch_misaligned_);
      CommitRecord record;
      record.pc = pc_;
      record.trapped = true;
      record.cause = static_cast<std::uint64_t>(TrapCause::kInstrAddrMisaligned);
      out.arch.commits.push_back(record);
      csrs_.enter_trap(pc_, record.cause, pc_, ctx_);
      pc_ = csrs_.mtvec();
      cycle_ += 3;
      continue;
    }

    const bool icache_hit = icache_.access(pc_, ctx_);
    cycle_ += icache_hit ? kFetchHitCycles : kFetchMissCycles;

    Word word = 0;
    if (!fetch_word(pc_, ctx_, word)) {
      out.arch.halt = HaltReason::kFetchOutOfRange;
      ctx_.hit(cov_halt_, 1);
      break;
    }
    // Round-robin lane assignment; mask when the width is a power of two
    // (it always is in practice) so the per-instruction path has no divide.
    const std::size_t index = out.arch.commits.size();
    const unsigned lane = lane_of(index);

    StepState step{.record = out.arch.commits.emplace_back(), .index = index};
    step.record.pc = pc_;
    step.record.word = word;
    step.next_pc = pc_ + 4;

    const DecodeUnit::Outcome& decoded =
        decoded_program != nullptr
            ? decode_.decode(word, decoded_program->lookup(word), lane, ctx_)
            : (reference_outcome_ = decode_.decode(word, lane, ctx_));

    // Retirement counting convention shared with the ISS; bug V7 skips the
    // increment for EBREAK.
    if (params_.bugs.enabled(BugId::kV7EbreakInstret) && decoded.legal &&
        decoded.instr.mnemonic == Mnemonic::kEbreak) {
      out.firings.push_back(BugFiring{BugId::kV7EbreakInstret,
                                      step.index});
    } else {
      ++instret_;
    }

    if (!decoded.legal) {
      step.has_trap = true;
      step.cause = TrapCause::kIllegalInstruction;
      step.tval = word;
    } else {
      if (decoded.v2_illegal_executed) {
        out.firings.push_back(BugFiring{BugId::kV2IllegalOpExec,
                                        step.index});
      }
      execute_instruction(decoded, word, lane, step, out);
    }

    if (decoded.legal && !step.has_trap) {
      if (have_prev_mnemonic_) {
        ctx_.hit(cov_seq_pair_,
                 static_cast<std::size_t>(prev_mnemonic_) * isa::kNumMnemonics +
                     static_cast<std::size_t>(decoded.instr.mnemonic));
      }
      have_prev_mnemonic_ = true;
      prev_mnemonic_ = decoded.instr.mnemonic;
    }

    if (step.has_trap) {
      std::uint64_t cause = static_cast<std::uint64_t>(step.cause);
      // Bug V3: a younger pre-decode exception sitting in the fetch queue
      // overwrites the trap cause of the older instruction.
      const bool in_program_stream =
          pc_ >= isa::kProgramBase && pc_ < sentinel_pc_;
      if (params_.bugs.enabled(BugId::kV3ExcQueueCause) &&
          step.cause != TrapCause::kIllegalInstruction && in_program_stream &&
          queued_illegal_ahead(pc_)) {
        cause = static_cast<std::uint64_t>(TrapCause::kIllegalInstruction);
        out.firings.push_back(BugFiring{BugId::kV3ExcQueueCause,
                                        step.index});
      }
      step.record.wrote_rd = false;
      step.record.wrote_mem = false;
      step.record.trapped = true;
      step.record.cause = cause;
      csrs_.enter_trap(pc_, cause, step.tval, ctx_);
      rob_.flush(ctx_);
      scoreboard_.flush();
      have_prev_issue_ = false;
      have_prev_mnemonic_ = false;  // pipeline flush breaks the sequence
      pc_ = csrs_.mtvec();
      cycle_ += 4;
      if (word == 0) {
        sled_.trapped(step.index);
        next_probe = std::min(next_probe, sled_.next_step());
      }
    } else {
      rob_.dispatch_retire(ctx_);
      pc_ = step.next_pc;
      cycle_ += step.latency;
    }
  }
  if (out.arch.halt == HaltReason::kBudget) {
    ctx_.hit(cov_halt_, 2);
  }

  out.arch.regs = regs_;
  out.arch.instret = instret_;
  out.arch.mstatus = csrs_.mstatus();
  out.arch.mepc = csrs_.mepc();
  out.arch.mcause = csrs_.mcause();
  out.arch.mtval = csrs_.mtval();
  out.arch.mtvec = csrs_.mtvec();
  out.arch.mscratch = csrs_.mscratch();
  out.cycles = cycle_;
  ctx_.take_test_map(out.test_coverage);
}

std::uint64_t Pipeline::probe(RunOutput& out) {
  std::uint64_t skipped = 0;
  if (out.arch.commits.size() == sled_.next_step()) {
    skipped = replay_sled(out);
    probe_.jumped(out.arch.commits.size());
  }
  if (out.arch.commits.size() == probe_.next_step()) {
    skipped += probe_loop(out);
  }
  return skipped;
}

std::uint64_t Pipeline::replay_sled(RunOutput& out) {
  std::vector<CommitRecord>& commits = out.arch.commits;
  const std::uint64_t n = commits.size();
  const SledMark stepped = sled_mark_;
  sled_mark_ = SledMark{n, cycle_, icache_.misses()};
  auto fetch = [this](std::uint64_t addr, Word& word) { return peek_word(addr, word); };
  // The word since the last mark is a sled word when the trace test
  // passes.
  if (!sled_.entered(commits, pc_) ||
      stepped.index + isa::TrapSled::kWordCommits != n ||
      csrs_.mtvec() != isa::kHandlerBase || !isa::TrapSled::handler_intact(fetch)) {
    return 0;
  }
  const std::uint64_t words = isa::TrapSled::extent(
      pc_, params_.instruction_budget - n, sentinel_pc_, fetch);
  if (words == 0) {
    return 0;
  }

  // A word costs what the stepped one did, give or take its I$ misses.
  constexpr unsigned kMissPenalty = kFetchMissCycles - kFetchHitCycles;
  const std::uint64_t base_cycles = (cycle_ - stepped.cycle) -
                                    kMissPenalty * (icache_.misses() - stepped.icache_misses);
  const std::uint64_t first = pc_;
  std::uint64_t cycles = 0;
  for (std::uint64_t k = 0; k < words; ++k) {
    // Only what depends on the word's address: the I$ accesses, the fetch
    // points, the trap entry, the addi's result and the mepc write. The
    // rest of the word is proven constant by the stepped words.
    const std::uint64_t pc = first + 4 * k;
    const std::uint64_t index = n + k * isa::TrapSled::kWordCommits;
    std::uint64_t misses = icache_.access(pc, ctx_) ? 0 : 1;
    Word word = 0;
    (void)fetch_word(pc, ctx_, word);
    csrs_.enter_trap(pc, static_cast<std::uint64_t>(TrapCause::kIllegalInstruction),
                     0, ctx_);
    // The stub's first fetch from each of its I$ lines (kHandlerBase is
    // line-aligned). Its other fetches hit the line just fetched, whose hit
    // point the stepped words already set.
    for (std::uint64_t offset = 0; offset < 4 * isa::assembled_trap_handler().size();
         offset += params_.icache.line_bytes) {
      misses += icache_.access(isa::kHandlerBase + offset, ctx_) ? 0 : 1;
    }
    regs_[isa::kTrapScratchReg] = pc;  // csrrs t6, mepc, x0
    const ExecUnit::Result sum =
        exec_.execute(sled_addi_, isa::kHandlerBase + 4, reg(sled_addi_.rs1),
                      reg(sled_addi_.rs2), lane_of(index + 2), ctx_);
    regs_[isa::kTrapScratchReg] = sum.value;
    (void)csrs_.access(sled_csrrw_, sum.value, true, true, instret_ + index - n + 4,
                       ctx_);
    (void)csrs_.take_mret(ctx_);
    cycles += base_cycles + kMissPenalty * misses;
  }
  isa::TrapSled::append(commits, first, words);
  pc_ = first + 4 * words;
  const std::uint64_t steps = words * isa::TrapSled::kWordCommits;
  instret_ += steps;
  cycle_ += cycles;
  scoreboard_.delay(cycles);
  sled_steps_ += steps;
  return steps;
}

std::uint64_t Pipeline::probe_loop(RunOutput& out) {
  if (probe_.confirming()) {
    if (!probe_.period_reads_counter(out.arch.commits) && loop_repeats()) {
      return skip_loop(out);
    }
    probe_.reject();
    return 0;
  }
  if (probe_.scan(out.arch.commits, pc_)) {
    capture_loop_start(out.firings.size());
  }
  return 0;
}

void Pipeline::capture_loop_start(std::size_t firings) {
  LoopStart& s = loop_start_;
  s.pc = pc_;
  s.regs = regs_;
  csrs_.capture(s.csrs);
  s.memory_changes = memory_.changes();
  s.have_prev_issue = have_prev_issue_;
  s.prev_klass = prev_klass_;
  s.prev_rd = prev_rd_;
  s.have_prev_mnemonic = have_prev_mnemonic_;
  s.prev_mnemonic = prev_mnemonic_;
  scoreboard_.capture(cycle_, s.scoreboard);
  rob_.capture(s.rob);
  predictor_.capture(s.predictor);
  icache_.capture(s.icache);
  dcache_.capture(s.dcache);
  s.cycle = cycle_;
  s.instret = instret_;
  s.firings = firings;
}

bool Pipeline::loop_repeats() const {
  const LoopStart& s = loop_start_;
  return pc_ == s.pc && regs_ == s.regs && have_prev_issue_ == s.have_prev_issue &&
         prev_klass_ == s.prev_klass && prev_rd_ == s.prev_rd &&
         have_prev_mnemonic_ == s.have_prev_mnemonic &&
         prev_mnemonic_ == s.prev_mnemonic && csrs_.matches(s.csrs) &&
         memory_.changes() == s.memory_changes &&
         scoreboard_.matches(s.scoreboard, cycle_) &&
         rob_.matches(s.rob, ctx_.test_map()) && predictor_.matches(s.predictor) &&
         icache_.matches(s.icache) && dcache_.matches(s.dcache);
}

std::uint64_t Pipeline::skip_loop(RunOutput& out) {
  const std::uint64_t copies =
      probe_.replicate(out.arch.commits, params_.instruction_budget);
  const std::uint64_t period = probe_.period();
  const std::size_t first = loop_start_.firings;
  const std::size_t last = out.firings.size();
  out.firings.reserve(last + copies * (last - first));
  for (std::uint64_t copy = 1; copy <= copies; ++copy) {
    for (std::size_t i = first; i < last; ++i) {
      BugFiring firing = out.firings[i];
      firing.commit_index += copy * period;
      out.firings.push_back(firing);
    }
  }
  const std::uint64_t cycles = copies * (cycle_ - loop_start_.cycle);
  cycle_ += cycles;
  scoreboard_.delay(cycles);
  instret_ += copies * (instret_ - loop_start_.instret);
  const std::uint64_t skipped = copies * period;
  skipped_steps_ += skipped;
  return skipped;
}

void Pipeline::execute_instruction(const DecodeUnit::Outcome& decoded, Word word,
                                   unsigned lane, StepState& step,
                                   RunOutput& out) {
  const Instruction& instr = decoded.instr;
  const InstrSpec& spec = isa::spec(instr.mnemonic);

  // Source-operand reads go through the scoreboard (hazard timing).
  std::uint64_t stall = 0;
  if (spec.reads_rs1) {
    stall = std::max(stall, scoreboard_.check_read(instr.rs1, cycle_, ctx_));
  }
  if (spec.reads_rs2) {
    stall = std::max(stall, scoreboard_.check_read(instr.rs2, cycle_, ctx_));
  }
  cycle_ += stall;

  const bool raw_dependent =
      have_prev_issue_ && prev_rd_ != 0 &&
      ((spec.reads_rs1 && instr.rs1 == prev_rd_) ||
       (spec.reads_rs2 && instr.rs2 == prev_rd_));
  note_pair_issue(spec.klass, raw_dependent, ctx_);
  prev_rd_ = spec.writes_rd ? instr.rd : 0;

  const std::uint64_t a = reg(instr.rs1);
  const std::uint64_t b = reg(instr.rs2);
  const auto imm = static_cast<std::uint64_t>(instr.imm);

  switch (spec.klass) {
    case InstrClass::kAlu:
    case InstrClass::kAluW:
    case InstrClass::kMulDiv:
    case InstrClass::kUpper: {
      const ExecUnit::Result r = exec_.execute(instr, step.record.pc, a, b, lane, ctx_);
      // Pipelined units: the instruction occupies issue for one cycle and
      // its result becomes ready r.latency cycles later; dependent readers
      // stall through the scoreboard, independent ones flow.
      write_reg(instr.rd, r.value, r.latency, step);
      step.latency = 1;
      return;
    }

    case InstrClass::kBranch: {
      const auto prediction = predictor_.predict(step.record.pc, ctx_);
      const ExecUnit::Result r = exec_.execute(instr, step.record.pc, a, b, lane, ctx_);
      const bool taken = r.value != 0;
      const bool mispredicted = prediction.predict_taken != taken;
      predictor_.update(step.record.pc, taken, mispredicted, ctx_);
      ctx_.hit(cov_branch_dir_,
               (taken ? 2u : 0u) + (instr.imm < 0 ? 1u : 0u));
      if (taken) {
        step.next_pc = step.record.pc + imm;
      }
      step.latency = mispredicted ? 4 : 1;
      return;
    }

    case InstrClass::kJump: {
      const ExecUnit::Result r = exec_.execute(instr, step.record.pc, a, b, lane, ctx_);
      write_reg(instr.rd, r.value, 1, step);
      step.next_pc = instr.mnemonic == Mnemonic::kJal
                         ? step.record.pc + imm
                         : ((a + imm) & ~1ULL);
      if (step.next_pc < isa::kProgramBase || step.next_pc > sentinel_pc_) {
        ctx_.hit(cov_wild_jump_);
      }
      step.latency = 2;
      return;
    }

    case InstrClass::kLoad: {
      const Lsu::Outcome r = lsu_.load(spec, a + imm, dcache_, memory_, ctx_);
      if (r.v5_fired) {
        out.firings.push_back(BugFiring{BugId::kV5SilentLoadFault,
                                        step.index});
      }
      if (r.v4_fired) {
        out.firings.push_back(BugFiring{BugId::kV4LostWriteback,
                                        step.index});
      }
      if (r.trap) {
        step.has_trap = true;
        step.cause = r.cause;
        step.tval = r.tval;
        return;
      }
      write_reg(instr.rd, r.value, r.latency, step);
      step.latency = r.latency;
      return;
    }

    case InstrClass::kStore: {
      const Lsu::Outcome r = lsu_.store(spec, a + imm, b, dcache_, memory_, ctx_);
      if (r.v4_fired) {
        out.firings.push_back(BugFiring{BugId::kV4LostWriteback,
                                        step.index});
      }
      if (r.trap) {
        step.has_trap = true;
        step.cause = r.cause;
        step.tval = r.tval;
        return;
      }
      step.record.wrote_mem = true;
      step.record.mem_addr = a + imm;
      step.record.mem_value = r.value;
      step.record.mem_bytes = spec.access_bytes;
      step.latency = r.latency;
      return;
    }

    case InstrClass::kFence: {
      if (instr.mnemonic == Mnemonic::kFenceI) {
        icache_.invalidate_all(ctx_);
        dcache_.flush_all(memory_, ctx_);
        // Bug V1: the unused rd field of FENCE.I drives the register write
        // port with the decoded I-immediate.
        if (decoded.v1_spurious_rd_write) {
          out.firings.push_back(BugFiring{BugId::kV1FenceIDecode,
                                          step.index});
          write_reg(decoded.v1_rd, static_cast<std::uint64_t>(isa::imm_i(word)),
                    1, step);
        }
        step.latency = 6;
      } else {
        dcache_.flush_all(memory_, ctx_);
        step.latency = 4;
      }
      return;
    }

    case InstrClass::kSystem: {
      switch (instr.mnemonic) {
        case Mnemonic::kEcall:
          step.has_trap = true;
          step.cause = TrapCause::kEcallFromM;
          step.tval = 0;
          return;
        case Mnemonic::kEbreak:
          step.has_trap = true;
          step.cause = TrapCause::kBreakpoint;
          step.tval = step.record.pc;
          return;
        case Mnemonic::kMret:
          step.next_pc = csrs_.take_mret(ctx_);
          step.latency = 3;
          return;
        default:  // WFI: no interrupt sources, acts as a NOP
          step.latency = 1;
          return;
      }
    }

    case InstrClass::kCsr: {
      const bool imm_form = instr.mnemonic == Mnemonic::kCsrrwi ||
                            instr.mnemonic == Mnemonic::kCsrrsi ||
                            instr.mnemonic == Mnemonic::kCsrrci;
      const std::uint64_t operand = imm_form ? (instr.rs1 & 0x1f) : a;
      const bool write_form = instr.mnemonic == Mnemonic::kCsrrw ||
                              instr.mnemonic == Mnemonic::kCsrrwi;
      const bool performs_write = write_form || instr.rs1 != 0;
      const CsrUnit::AccessOutcome r =
          csrs_.access(instr, operand, write_form, performs_write, instret_, ctx_);
      if (r.v6_fired) {
        out.firings.push_back(BugFiring{BugId::kV6CsrXValue,
                                        step.index});
      }
      if (r.illegal) {
        step.has_trap = true;
        step.cause = TrapCause::kIllegalInstruction;
        step.tval = word;
        return;
      }
      write_reg(instr.rd, r.old_value, 1, step);
      step.latency = 2;
      return;
    }
  }
}

}  // namespace mabfuzz::soc
