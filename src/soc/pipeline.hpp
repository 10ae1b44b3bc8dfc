#pragma once
// The substrate hart: a cycle-annotated, coverage-instrumented pipeline
// that executes one bare-metal test and emits (a) the architectural commit
// trace the differential oracle compares against the golden ISS, (b) the
// per-test branch-coverage bitmap, and (c) the injected-bug firing log.
//
// With an empty BugSet the pipeline is architecturally bit-equivalent to
// golden::Iss (proven by the integration test suite on random programs).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "coverage/context.hpp"
#include "golden/csr.hpp"
#include "golden/memory.hpp"
#include "isa/commit.hpp"
#include "isa/decoded_program.hpp"
#include "isa/loop_probe.hpp"
#include "isa/platform.hpp"
#include "isa/trap_sled.hpp"
#include "soc/bugs.hpp"
#include "soc/cache.hpp"
#include "soc/csr_unit.hpp"
#include "soc/decode_unit.hpp"
#include "soc/exec_unit.hpp"
#include "soc/lsu.hpp"
#include "soc/predictor.hpp"
#include "soc/rob.hpp"
#include "soc/scoreboard.hpp"

namespace mabfuzz::soc {

struct PipelineParams {
  std::string name = "core";
  unsigned lanes = 1;
  CacheParams icache{};
  CacheParams dcache{};
  PredictorParams predictor{};
  unsigned rob_slots = 0;
  DecodeUnitParams decode{};
  ExecUnitParams exec{};
  LsuParams lsu{};
  golden::CsrIdentity identity{};
  BugSet bugs{};
  std::uint64_t dram_size = isa::kDramSizeDefault;
  std::uint64_t instruction_budget = isa::kDefaultInstructionBudget;
};

/// Everything one test execution produces.
struct RunOutput {
  isa::ArchResult arch;
  coverage::Map test_coverage;
  FiringLog firings;
  std::uint64_t cycles = 0;

  friend bool operator==(const RunOutput&, const RunOutput&) = default;
};

class Pipeline {
 public:
  /// Throws std::invalid_argument unless `lanes` is a power of two that
  /// the decode and execute units share, and `dram_size` a power of two of
  /// at least 4 KiB.
  explicit Pipeline(PipelineParams params);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Runs one test program from a cold reset. Decodes every fetched word
  /// through isa::decode (the reference path the pre-decoded overload is
  /// tested against).
  [[nodiscard]] RunOutput run(const std::vector<isa::Word>& program);

  /// Same execution, recycling the caller's buffers: commit vector, firing
  /// log and coverage map are reused in place (no per-test allocation after
  /// warmup). `out` is fully overwritten.
  void run(const std::vector<isa::Word>& program, RunOutput& out);

  /// Pre-decoded hot path: fetched words resolve through `decoded`
  /// (typically the cache Backend::run_test shares with the golden ISS),
  /// a test that enters an exactly repeating loop jumps to the instruction
  /// budget (isa/loop_probe.hpp), and a trap sled's words replay only what
  /// depends on their address (isa/trap_sled.hpp). Identical in every
  /// output to the per-word-decode overloads, which step every instruction.
  void run(const std::vector<isa::Word>& program, isa::DecodedProgram& decoded,
           RunOutput& out);

  [[nodiscard]] const PipelineParams& params() const noexcept { return params_; }
  [[nodiscard]] const coverage::Registry& registry() const noexcept {
    return ctx_.registry();
  }
  [[nodiscard]] std::size_t coverage_universe() const noexcept {
    return ctx_.universe();
  }

  /// Lifetime count of steps the loop skip did not simulate (diagnostics
  /// and tests only; it never influences execution).
  [[nodiscard]] std::uint64_t skipped_steps() const noexcept { return skipped_steps_; }

  /// Lifetime count of trap-sled steps replayed instead of stepped
  /// (diagnostics and tests only).
  [[nodiscard]] std::uint64_t sled_steps() const noexcept { return sled_steps_; }

 private:
  // Per-commit scratch. The record is built in place at the back of the
  // trace (position `index`): a local record copied in by push_back would
  // be reloaded in 16-byte chunks over its byte-sized flag stores, a
  // store-forwarding stall on every commit.
  struct StepState {
    isa::CommitRecord& record;
    std::size_t index;
    std::uint64_t next_pc = 0;
    std::uint64_t tval = 0;
    isa::TrapCause cause = isa::TrapCause::kIllegalInstruction;
    unsigned latency = 1;
    bool has_trap = false;
  };

  /// The state a steady-state loop must repeat, captured where a candidate
  /// period starts (docs/ARCHITECTURE.md, "Steady-state loops"). Left out:
  /// decode plans (a pure function's cache), the units' touched lists (they
  /// only bound reset work), and the test's coverage map (one period later
  /// it holds every point the period hits).
  struct LoopStart {
    std::uint64_t pc = 0;
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    golden::CsrFile csrs;
    std::uint64_t memory_changes = 0;
    bool have_prev_issue = false;
    isa::InstrClass prev_klass{};
    isa::RegIndex prev_rd = 0;
    bool have_prev_mnemonic = false;
    isa::Mnemonic prev_mnemonic{};
    Scoreboard::Snapshot scoreboard;
    ReorderBuffer::Snapshot rob;
    BranchPredictor::Snapshot predictor;
    InstructionCache::Snapshot icache;
    DataCache::Snapshot dcache;
    // Not compared: only their growth per period is used.
    std::uint64_t cycle = 0;
    std::uint64_t instret = 0;
    std::size_t firings = 0;
  };

  void cold_reset(const std::vector<isa::Word>& program);
  void run_impl(const std::vector<isa::Word>& program,
                isa::DecodedProgram* decoded, RunOutput& out);

  /// Coherent instruction fetch into `word`: any D$ line holding `addr`,
  /// clean or dirty, wins over DRAM. False when `addr` is outside DRAM.
  [[nodiscard]] bool fetch_word(std::uint64_t addr, coverage::Context& ctx,
                                isa::Word& word);

  /// The word fetch_word would return, without its coverage points.
  [[nodiscard]] bool peek_word(std::uint64_t addr, isa::Word& word) const noexcept;

  /// The lane of the commit at trace index `index`.
  [[nodiscard]] unsigned lane_of(std::size_t index) const noexcept {
    return static_cast<unsigned>(index & lane_mask_);
  }

  /// Bug V3 helper: does the 3-deep prefetch queue beyond `pc` hold a word
  /// that fails pre-decode?
  [[nodiscard]] bool queued_illegal_ahead(std::uint64_t pc);

  void execute_instruction(const DecodeUnit::Outcome& decoded, isa::Word word,
                           unsigned lane, StepState& step, RunOutput& out);

  void write_reg(isa::RegIndex rd, std::uint64_t value, unsigned latency,
                 StepState& step);

  [[nodiscard]] std::uint64_t reg(isa::RegIndex index) const noexcept {
    return regs_[index & 0x1f];
  }

  void note_pair_issue(isa::InstrClass klass, bool raw_dependent,
                       coverage::Context& ctx);

  /// Called at the earlier of probe_.next_step() and sled_.next_step():
  /// replays a trap sled, then runs the loop probe if it is due. Returns
  /// the steps not simulated.
  std::uint64_t probe(RunOutput& out);

  /// Compares the state with the captured loop start, or looks for a new
  /// candidate period. Returns the steps skipped (0 unless the state
  /// repeated).
  std::uint64_t probe_loop(RunOutput& out);
  void capture_loop_start(std::size_t firings);
  [[nodiscard]] bool loop_repeats() const;
  /// Replicates the confirmed period up to the budget: commits, firings,
  /// cycles and retired instructions. Returns the steps skipped.
  std::uint64_t skip_loop(RunOutput& out);

  /// The sled entry test and, when it passes, the per-word replay up to
  /// the extent (docs/ARCHITECTURE.md, "Trap sleds"). Returns the steps
  /// replayed.
  std::uint64_t replay_sled(RunOutput& out);

  PipelineParams params_;
  coverage::Context ctx_;

  golden::Memory memory_;
  InstructionCache icache_;
  DataCache dcache_;
  BranchPredictor predictor_;
  Scoreboard scoreboard_;
  ReorderBuffer rob_;
  CsrUnit csrs_;
  DecodeUnit decode_;
  ExecUnit exec_;
  Lsu lsu_;

  // Architectural state.
  std::array<std::uint64_t, isa::kNumRegs> regs_{};
  std::uint64_t pc_ = 0;
  std::uint64_t instret_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t sentinel_pc_ = 0;

  // Pair-issue tracking (superscalar front end).
  bool have_prev_issue_ = false;
  isa::InstrClass prev_klass_{};
  isa::RegIndex prev_rd_ = 0;

  // Instruction-sequence tracking (forwarding-path cross coverage).
  bool have_prev_mnemonic_ = false;
  isa::Mnemonic prev_mnemonic_{};

  // Lane assignment: commit index & (lanes - 1).
  unsigned lane_mask_ = 0;

  // The per-word decode outcome on the uncached reference path.
  DecodeUnit::Outcome reference_outcome_;

  // Pipeline-level coverage points.
  coverage::PointId cov_fetch_region_ = 0;   // per 4 KiB DRAM region
  coverage::PointId cov_fetch_handler_ = 0;
  // Fetch served by a D$ line, clean or dirty (the point's name says
  // "dirty_line" for history; it fires for both).
  coverage::PointId cov_fetch_selfmod_ = 0;
  coverage::PointId cov_fetch_misaligned_ = 0;
  coverage::PointId cov_pair_ = 0;           // lanes>=2: class x class issue pairs
  coverage::PointId cov_dual_ = 0;           // lanes>=2: 4 dual-issue outcomes
  coverage::PointId cov_halt_ = 0;           // 3 halt reasons
  coverage::PointId cov_branch_dir_ = 0;     // taken/not x fwd/bwd
  coverage::PointId cov_wild_jump_ = 0;      // control flow left program image
  coverage::PointId cov_seq_pair_ = 0;       // mnemonic x mnemonic sequences

  unsigned fetch_region_mask_ = 0;  // 4 KiB DRAM regions - 1

  isa::LoopProbe probe_;
  LoopStart loop_start_;
  std::uint64_t skipped_steps_ = 0;

  // Trap sleds. Every entry test leaves a mark at its word boundary, so the
  // next one knows what the word between them cost: its cycles and I$
  // misses.
  struct SledMark {
    std::uint64_t index = isa::TrapSled::kNever;
    std::uint64_t cycle = 0;
    std::uint64_t icache_misses = 0;
  };
  isa::TrapSled sled_;
  SledMark sled_mark_;
  // The stub's addi and csrrw, the two handler instructions whose effects
  // depend on the faulting address.
  isa::Instruction sled_addi_;
  isa::Instruction sled_csrrw_;
  std::uint64_t sled_steps_ = 0;
};

}  // namespace mabfuzz::soc
