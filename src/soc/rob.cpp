#include "soc/rob.hpp"

namespace mabfuzz::soc {

ReorderBuffer::ReorderBuffer(unsigned slots, coverage::Context& ctx)
    : slots_(slots) {
  if (slots_ == 0) {
    return;
  }
  auto& reg = ctx.registry();
  cov_alloc_ = reg.add_array("rob/alloc_slot", slots_);
  cov_retire_ = reg.add_array("rob/retire_slot", slots_);
  cov_flush_ = reg.add_array("rob/flush_slot", slots_);
  cov_full_ = reg.add("rob/full_backpressure");
}

void ReorderBuffer::reset() noexcept {
  head_ = 0;
  tail_ = 0;
  occupancy_ = 0;
}

void ReorderBuffer::allocate(coverage::Context& ctx) noexcept {
  if (slots_ == 0) {
    return;
  }
  if (occupancy_ == slots_) {
    // Full: the oldest retires this cycle to make room (modelled as
    // back-pressure), which is itself a coverage-worthy corner.
    ctx.hit(cov_full_);
    retire(ctx);
  }
  ctx.hit(cov_alloc_, tail_);
  // Increment-and-wrap instead of `% slots_`: same values, no divide on
  // the per-instruction path (slots_ is rarely a power of two).
  tail_ = tail_ + 1 == slots_ ? 0 : tail_ + 1;
  ++occupancy_;
}

void ReorderBuffer::retire(coverage::Context& ctx) noexcept {
  if (slots_ == 0 || occupancy_ == 0) {
    return;
  }
  ctx.hit(cov_retire_, head_);
  head_ = head_ + 1 == slots_ ? 0 : head_ + 1;
  --occupancy_;
}

void ReorderBuffer::flush(coverage::Context& ctx) noexcept {
  if (slots_ == 0) {
    return;
  }
  while (occupancy_ > 0) {
    ctx.hit(cov_flush_, head_);
    head_ = head_ + 1 == slots_ ? 0 : head_ + 1;
    --occupancy_;
  }
  head_ = 0;
  tail_ = 0;
}

void ReorderBuffer::capture(Snapshot& out) const noexcept {
  out = Snapshot{head_, tail_, occupancy_};
}

bool ReorderBuffer::matches(const Snapshot& snapshot,
                            const coverage::Map& test_map) const noexcept {
  if (snapshot.head == head_ && snapshot.tail == tail_ &&
      snapshot.occupancy == occupancy_) {
    return true;
  }
  if (snapshot.occupancy != 0 || occupancy_ != 0) {
    return false;
  }
  for (unsigned slot = 0; slot < slots_; ++slot) {
    if (!test_map.test(cov_alloc_ + slot) || !test_map.test(cov_retire_ + slot)) {
      return false;
    }
  }
  return true;
}

}  // namespace mabfuzz::soc
