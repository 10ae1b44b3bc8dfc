#pragma once
// The shared half of the steady-state loop skip (docs/ARCHITECTURE.md,
// "Steady-state loops").
//
// A test that runs into the instruction budget is almost always a loop, and
// once every piece of simulator state repeats exactly from one iteration to
// the next, the rest of the test is that iteration again. golden::Iss and
// soc::Pipeline each prove such a repeat by comparing their whole state one
// period apart; the step function is deterministic, so equal state means
// the period repeats until the budget. They then jump to the budget by
// replicating the period's commits instead of simulating them again.
//
// LoopProbe holds what the two simulators share: when to look, the period
// search over the commit trace, the counter-CSR rule and the record
// replication. Capturing and comparing state stays with each simulator and
// each of its units, which keep their fields private.

#include <cstdint>
#include <vector>

#include "isa/commit.hpp"

namespace mabfuzz::isa {

class LoopProbe {
 public:
  /// Steps a test executes before the first look. Most tests halt long
  /// before it (the median test commits about 35 instructions), so they pay
  /// one never-taken branch per step and nothing else.
  static constexpr std::uint64_t kFirstStep = 128;
  /// Longest period searched for.
  static constexpr std::size_t kMaxPeriod = 64;
  /// Steps from a failed period search or state comparison to the next
  /// search. State that did not repeat yet often settles a few periods
  /// later (a ROB, for one, once its every slot is covered).
  static constexpr std::uint64_t kRescanGap = 16;
  /// Failed period searches, and failed state comparisons, after which a
  /// test stops looking.
  static constexpr unsigned kMaxFailedScans = 12;
  static constexpr unsigned kMaxFailedChecks = 4;
  /// next_step() once the probe has stopped looking for this test.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// A core that assigns commits to `lanes` round-robin hits per-lane
  /// coverage points, so its periods are rounded up to a multiple of the
  /// lane count.
  explicit LoopProbe(unsigned lanes = 1) noexcept : lanes_(lanes < 1 ? 1 : lanes) {}

  /// Starts a test. An unarmed probe stays silent for the whole test (the
  /// per-word reference paths step every instruction).
  void begin_test(bool armed) noexcept;

  /// The step (commits so far) at which the simulator calls in next.
  [[nodiscard]] std::uint64_t next_step() const noexcept { return next_step_; }

  /// The simulator appended a trap sled's records (isa/trap_sled.hpp) and
  /// now stands at `step`. A look scheduled inside the jump moves to `step`;
  /// a comparison scheduled there no longer ends one period after its
  /// capture, so it becomes a look too. A schedule past the jump stays: the
  /// replay is exact, so a period that spans it is still a period.
  void jumped(std::uint64_t step) noexcept {
    if (next_step_ < step) {
      confirming_ = false;
      next_step_ = step;
    }
  }

  /// True when the simulator captured its state one candidate period ago
  /// and must now compare it with its current state.
  [[nodiscard]] bool confirming() const noexcept { return confirming_; }

  /// Looks for a candidate period ending at the current step: the distance
  /// p back to the last commit at `pc` (the next pc to execute), rounded up
  /// to the lane count, with the last two p-commit blocks equal. True when
  /// one is found: the simulator captures its state now and compares at
  /// next_step(). Otherwise schedules the next search, if any is left.
  bool scan(const std::vector<CommitRecord>& commits, std::uint64_t pc) noexcept;

  /// True when a commit of the candidate period read a counter CSR (mcycle,
  /// minstret, cycle, time, instret). Those read the retired-instruction
  /// count, which the state comparison leaves out, so such a period does not
  /// repeat even when the rest of the state does.
  [[nodiscard]] bool period_reads_counter(
      const std::vector<CommitRecord>& commits) const noexcept;

  /// The state comparison failed: schedules the next search, if any is left.
  void reject() noexcept;

  /// The state matched: appends the whole copies of the period's commits
  /// that fit below `budget` and returns how many. The probe stops for the
  /// rest of the test.
  std::uint64_t replicate(std::vector<CommitRecord>& commits, std::uint64_t budget);

  /// The candidate period's length.
  [[nodiscard]] std::size_t period() const noexcept { return period_; }

 private:
  void fail_scan(std::size_t step) noexcept;

  unsigned lanes_;
  std::uint64_t next_step_ = kNever;
  bool confirming_ = false;
  std::size_t start_ = 0;
  std::size_t period_ = 0;
  unsigned failed_scans_ = 0;
  unsigned failed_checks_ = 0;
};

}  // namespace mabfuzz::isa
