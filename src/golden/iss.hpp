#pragma once
// Golden-reference instruction-set simulator (the SPIKE substitute).
//
// A purely functional RV64IM+Zicsr hart with precise synchronous-exception
// semantics. Runs one bare-metal test program to completion and emits the
// architectural commit trace the differential oracle consumes, or checks
// the DUT's trace in lockstep and stops at its first divergence.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "golden/csr.hpp"
#include "golden/memory.hpp"
#include "golden/trap.hpp"
#include "isa/commit.hpp"
#include "isa/decoded_program.hpp"
#include "isa/loop_probe.hpp"
#include "isa/platform.hpp"
#include "isa/trap_sled.hpp"

namespace mabfuzz::golden {

struct IssConfig {
  std::uint64_t dram_size = isa::kDramSizeDefault;
  CsrIdentity identity{};
  std::uint64_t instruction_budget = isa::kDefaultInstructionBudget;
};

class Iss {
 public:
  explicit Iss(IssConfig config = {});

  /// Loads the trap handler and `program` into a fresh DRAM, resets the
  /// hart, runs to completion, and returns the architectural trace.
  /// Decodes every fetched word through isa::decode (the reference path the
  /// pre-decoded overload is tested against).
  [[nodiscard]] isa::ArchResult run(const std::vector<isa::Word>& program);

  /// Same execution, recycling the caller's commit vector: `out` is fully
  /// overwritten, its buffers reused (no per-test allocation after warmup).
  void run(const std::vector<isa::Word>& program, isa::ArchResult& out);

  /// Pre-decoded hot path: fetched words resolve through `decoded`
  /// (typically the cache Backend::run_test shares with the DUT pipeline),
  /// a test that enters an exactly repeating loop jumps to the instruction
  /// budget (isa/loop_probe.hpp), and a trap sled's words are appended in
  /// closed form (isa/trap_sled.hpp). Architecturally identical to the
  /// per-word-decode overloads, which step every instruction.
  void run(const std::vector<isa::Word>& program, isa::DecodedProgram& decoded,
           isa::ArchResult& out);

  /// Lockstep check (Backend::run_test): the pre-decoded run, comparing
  /// each record as it commits with `dut`'s record of the same index and
  /// stopping at the first that differs in a field the oracle compares
  /// (isa::differs). Past the end of `dut` it runs on unchecked, so `out`
  /// reaches the golden trace's length. Returns the records checked: the
  /// divergent record's index, or the shorter trace's length when none
  /// differs. fuzz::compare(dut, out, <that count>) then gives the verdict
  /// compare gives on the unchecked run's trace.
  [[nodiscard]] std::size_t check(const std::vector<isa::Word>& program,
                                  isa::DecodedProgram& decoded,
                                  std::span<const isa::CommitRecord> dut,
                                  isa::ArchResult& out);

  [[nodiscard]] const IssConfig& config() const noexcept { return config_; }

  /// Lifetime count of steps the loop skip did not simulate (diagnostics
  /// and tests only; it never influences execution).
  [[nodiscard]] std::uint64_t skipped_steps() const noexcept { return skipped_steps_; }

  /// Lifetime count of trap-sled steps appended in closed form
  /// (diagnostics and tests only).
  [[nodiscard]] std::uint64_t sled_steps() const noexcept { return sled_steps_; }

 private:
  struct StepOutcome {
    std::uint64_t next_pc = 0;
    bool has_trap = false;
    Trap trap;
  };

  /// The hart state a steady-state loop must repeat, captured where a
  /// candidate period starts.
  struct LoopStart {
    std::uint64_t pc = 0;
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    CsrFile csrs;
    std::uint64_t memory_changes = 0;
    std::uint64_t instret = 0;  // not compared: only its growth per period
  };

  void reset_hart() noexcept;
  void load(const std::vector<isa::Word>& program);
  /// Every run: records below `expected.size()` are checked as they
  /// commit (empty for the unchecked runs). Returns check()'s count.
  std::size_t run_impl(const std::vector<isa::Word>& program,
                       isa::DecodedProgram* decoded, isa::ArchResult& out,
                       std::span<const isa::CommitRecord> expected);

  /// Executes the decoded instruction at pc_, filling `record` with its
  /// architectural effects (rd/memory writes) and `out` with the next pc or
  /// the trap. `out` arrives as {pc_ + 4, no trap}. It is an out-parameter,
  /// not a return value: a returned struct is copied in wide chunks over
  /// its byte-sized flag store, which stalls every commit.
  void execute(const isa::Instruction& instr, isa::Word word,
               isa::CommitRecord& record, StepOutcome& out);

  void execute_csr(const isa::Instruction& instr, isa::Word word,
                   isa::CommitRecord& record, StepOutcome& out);

  void write_reg(isa::RegIndex rd, std::uint64_t value,
                 isa::CommitRecord& record) noexcept;

  /// Called at the earlier of probe_.next_step() and sled_.next_step():
  /// replays a trap sled, then runs the loop probe if it is due. Returns
  /// the steps not simulated.
  std::uint64_t probe(isa::ArchResult& out);

  /// Compares the state with the captured loop start, or looks for a new
  /// candidate period. Returns the steps skipped (0 unless the state
  /// repeated).
  std::uint64_t probe_loop(isa::ArchResult& out);

  /// The sled entry test and, when it passes, the closed-form replay up to
  /// the extent. Returns the steps appended.
  std::uint64_t replay_sled(isa::ArchResult& out);

  [[nodiscard]] std::uint64_t reg(isa::RegIndex index) const noexcept {
    return regs_[index & 0x1f];
  }

  IssConfig config_;
  Memory memory_;
  CsrFile csrs_;
  std::array<std::uint64_t, isa::kNumRegs> regs_{};
  std::uint64_t pc_ = 0;
  std::uint64_t instret_ = 0;
  std::uint64_t sentinel_pc_ = 0;

  isa::LoopProbe probe_;
  LoopStart loop_start_;
  std::uint64_t skipped_steps_ = 0;
  isa::TrapSled sled_;
  std::uint64_t sled_steps_ = 0;
};

}  // namespace mabfuzz::golden
