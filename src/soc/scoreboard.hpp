#pragma once
// Register scoreboard: tracks in-flight writers per architectural register
// for hazard detection (RAW stalls, bypass hits) and per-register coverage.
//
// Layout: a 32-bit busy mask split from the per-register ready-cycle array.
// The common case on the per-source read path is "no in-flight writer",
// which the mask answers with one bit test before the 8-byte ready_cycle_
// entry is ever loaded; flush/reset clear the mask in O(1) instead of
// sweeping the array (a ready_cycle_ entry is only meaningful while its
// busy bit is set, so stale entries are unobservable — the same trick the
// caches use for cold lines).

#include <array>
#include <cstdint>

#include "coverage/context.hpp"
#include "isa/fields.hpp"

namespace mabfuzz::soc {

class Scoreboard {
 public:
  explicit Scoreboard(coverage::Context& ctx);

  void reset() noexcept;

  // mark_write/check_read run on every commit, so they are defined inline.

  /// Marks `rd` busy until `ready_cycle` (result latency of its producer).
  void mark_write(isa::RegIndex rd, std::uint64_t ready_cycle,
                  coverage::Context& ctx) {
    rd &= 0x1f;
    if (rd == 0) {
      return;
    }
    busy_ |= 1u << rd;
    ready_cycle_[rd] = ready_cycle;
    ctx.hit(cov_write_, rd);
  }

  /// Checks a source read at cycle `now`. Returns the stall (0 when the
  /// value is ready or forwarded); marks RAW/bypass coverage.
  std::uint64_t check_read(isa::RegIndex rs, std::uint64_t now,
                           coverage::Context& ctx) {
    rs &= 0x1f;
    ctx.hit(cov_read_, rs);
    if (((busy_ >> rs) & 1u) == 0) {
      return 0;  // covers rs == 0: x0's busy bit is never set
    }
    const std::uint64_t ready = ready_cycle_[rs];
    if (ready <= now) {
      busy_ &= ~(1u << rs);  // writer completed; retire the entry
      return 0;
    }
    if (ready == now + 1) {
      // One-cycle-away result: the bypass network forwards it.
      ctx.hit(cov_bypass_, rs);
      return 0;
    }
    ctx.hit(cov_raw_stall_, rs);
    return ready - now;
  }

  /// Flushes all pending writers (trap / pipeline flush).
  void flush() noexcept;

  // Steady-state loop support (isa/loop_probe.hpp). Only waits are
  // observable: a busy register whose ready cycle has passed reads like a
  // free one, and what a read of a live one does (bypass or stall) depends
  // on `ready - now` alone.

  /// The live writers at cycle `now` and their remaining waits.
  struct Snapshot {
    std::uint32_t live = 0;
    std::array<std::uint64_t, isa::kNumRegs> wait{};
  };
  void capture(std::uint64_t now, Snapshot& out) const noexcept;
  [[nodiscard]] bool matches(const Snapshot& snapshot, std::uint64_t now) const noexcept;

  /// Moves every pending writer `cycles` later, for a skip that moves the
  /// pipeline's cycle count by as much.
  void delay(std::uint64_t cycles) noexcept;

 private:
  [[nodiscard]] std::uint32_t live_mask(std::uint64_t now) const noexcept;

  static_assert(isa::kNumRegs <= 32, "busy_ mask is one bit per register");

  std::uint32_t busy_ = 0;  // bit r set => ready_cycle_[r] is live
  std::array<std::uint64_t, isa::kNumRegs> ready_cycle_{};

  coverage::PointId cov_write_ = 0;      // per register
  coverage::PointId cov_raw_stall_ = 0;  // per register
  coverage::PointId cov_bypass_ = 0;     // per register
  coverage::PointId cov_read_ = 0;       // per register
};

}  // namespace mabfuzz::soc
