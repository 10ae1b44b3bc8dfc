#pragma once
// Re-order buffer occupancy model (BOOM / CVA6 issue queue analogue).
// Tracks slot allocation/retirement round-robin and flushes on traps;
// per-slot coverage points model the replicated ROB control logic.

#include <cstdint>

#include "coverage/context.hpp"

namespace mabfuzz::soc {

class ReorderBuffer {
 public:
  /// `slots` == 0 disables the structure (pure in-order cores).
  ReorderBuffer(unsigned slots, coverage::Context& ctx);

  void reset() noexcept;

  /// Allocates a slot for a dispatched instruction.
  void allocate(coverage::Context& ctx) noexcept;

  /// Retires the oldest instruction.
  void retire(coverage::Context& ctx) noexcept;

  /// Fused allocate-then-retire for the pipeline's commit path, which
  /// dispatches and retires one instruction per step. Hits the exact same
  /// coverage points in the exact same order as `allocate(ctx); retire(ctx)`
  /// but with one call and no re-checks of the enable/occupancy guards.
  /// Inline: it runs on every commit that does not trap.
  void dispatch_retire(coverage::Context& ctx) noexcept {
    if (slots_ == 0) {
      return;
    }
    if (occupancy_ == slots_) {
      // Full: the oldest retires this cycle to make room (back-pressure).
      ctx.hit(cov_full_);
      retire(ctx);
    }
    ctx.hit(cov_alloc_, tail_);
    tail_ = tail_ + 1 == slots_ ? 0 : tail_ + 1;
    // Occupancy is >= 1 after the allocation, so the retire is unconditional.
    ctx.hit(cov_retire_, head_);
    head_ = head_ + 1 == slots_ ? 0 : head_ + 1;
  }

  /// Trap: every occupied slot is flushed.
  void flush(coverage::Context& ctx) noexcept;

  // Steady-state loop support (isa/loop_probe.hpp).
  struct Snapshot {
    unsigned head = 0;
    unsigned tail = 0;
    unsigned occupancy = 0;
  };
  void capture(Snapshot& out) const noexcept;

  /// Equal pointers and occupancy. Two empty buffers with different
  /// pointers also match once `test_map` holds every alloc and retire slot
  /// point: the pointers then decide nothing but which of those points an
  /// instruction hits again.
  [[nodiscard]] bool matches(const Snapshot& snapshot,
                             const coverage::Map& test_map) const noexcept;

  [[nodiscard]] unsigned occupancy() const noexcept { return occupancy_; }
  [[nodiscard]] unsigned slots() const noexcept { return slots_; }
  [[nodiscard]] bool enabled() const noexcept { return slots_ != 0; }

 private:
  unsigned slots_;
  unsigned head_ = 0;  // next slot to retire
  unsigned tail_ = 0;  // next slot to allocate
  unsigned occupancy_ = 0;

  coverage::PointId cov_alloc_ = 0;   // per slot
  coverage::PointId cov_retire_ = 0;  // per slot
  coverage::PointId cov_flush_ = 0;   // per slot
  coverage::PointId cov_full_ = 0;    // single: back-pressure
};

}  // namespace mabfuzz::soc
