#pragma once
// The shared half of the trap-sled replay (docs/ARCHITECTURE.md, "Trap
// sleds").
//
// A mutated jump or branch that lands in zeroed DRAM (past the halt
// sentinel, or between the trap handler and the program) runs a trap sled:
// word 0 is illegal, so it traps, the handler stub adds 4 to mepc and
// returns, and the next zero word traps again. Every word commits the same
// five records shifted by 4 bytes, until the instruction budget, the next
// non-zero word, the sentinel or the end of DRAM. Once a test has stepped
// two such words, golden::Iss and soc::Pipeline append the rest instead of
// simulating them.
//
// TrapSled holds what the two simulators share: when to test for a sled,
// the entry test on the commit trace, the extent and the five-record
// template with its shifted emission. Each simulator checks its own trap
// vector and handler image, reads the extent from its own view of memory
// and owns its replay.

#include <cstdint>
#include <vector>

#include "isa/commit.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::isa {

class TrapSled {
 public:
  /// Commits per sled word: the trapped zero word and the four stub records.
  static constexpr std::uint64_t kWordCommits = 5;
  /// next_step() while no entry test is scheduled.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// A core that assigns commits to `lanes` round-robin hits per-lane
  /// coverage points, so it enters only once every record of a sled word
  /// has been stepped in every lane it can land in (two words on one or two
  /// lanes; the words that already stepped also bring mstatus to its mret
  /// fixed point).
  explicit TrapSled(unsigned lanes = 1) noexcept;

  /// Starts a test. An unarmed sled never schedules an entry test (the
  /// per-word reference paths step every instruction).
  void begin_test(bool armed) noexcept {
    armed_ = armed;
    next_step_ = kNever;
  }

  /// A zero word trapped at trace index `index`: the entry test runs when
  /// the stub has returned, kWordCommits steps later.
  void trapped(std::uint64_t index) noexcept {
    if (armed_) {
      next_step_ = index + kWordCommits;
    }
  }

  /// The step (commits so far) of the scheduled entry test, or kNever.
  [[nodiscard]] std::uint64_t next_step() const noexcept { return next_step_; }

  /// The entry test, run at next_step() with `pc` the next fetch: true when
  /// the trace ends in complete sled words for the entry words just below
  /// `pc`. Clears the schedule either way.
  [[nodiscard]] bool entered(const std::vector<CommitRecord>& commits,
                             std::uint64_t pc) noexcept;

  /// True when the four words `fetch(addr, word)` reads at kHandlerBase are
  /// the assembled stub.
  template <typename Fetch>
  [[nodiscard]] static bool handler_intact(Fetch&& fetch) {
    const std::vector<Word>& stub = assembled_trap_handler();
    for (std::size_t i = 0; i < stub.size(); ++i) {
      Word word = 0;
      if (!fetch(kHandlerBase + 4 * i, word) || word != stub[i]) {
        return false;
      }
    }
    return true;
  }

  /// Whole sled words from `pc` on: the minimum of the words that fit in
  /// `steps_left` and the zero words `fetch(addr, word)` (the simulator's
  /// own view of memory, false outside DRAM) reads from `pc` up, stopping
  /// before `sentinel`.
  template <typename Fetch>
  [[nodiscard]] static std::uint64_t extent(std::uint64_t pc, std::uint64_t steps_left,
                                            std::uint64_t sentinel, Fetch&& fetch) {
    const std::uint64_t room = steps_left / kWordCommits;
    std::uint64_t words = 0;
    for (Word word = 0; words < room && pc != sentinel && fetch(pc, word) && word == 0;
         ++words, pc += 4) {
    }
    return words;
  }

  /// Appends the records of `words` sled words at pc, pc + 4, ...
  static void append(std::vector<CommitRecord>& commits, std::uint64_t pc,
                     std::uint64_t words);

 private:
  std::uint64_t entry_words_;
  bool armed_ = false;
  std::uint64_t next_step_ = kNever;
};

}  // namespace mabfuzz::isa
