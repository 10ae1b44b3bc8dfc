#include "coverage/monitor.hpp"

namespace mabfuzz::coverage {

bool GammaWindowMonitor::record(std::size_t new_points) noexcept {
  ++observations_;
  if (gamma_ == 0) {
    // Depletion detection disabled (Sec. III-B preliminary formulation):
    // streaks are not even tracked, so depleted() can never fire.
    return false;
  }
  if (new_points > 0) {
    zero_streak_ = 0;
    return false;
  }
  ++zero_streak_;
  if (zero_streak_ == gamma_) {
    // Count the crossing once; a caller that keeps pulling a depleted arm
    // without resetting it still sees record() return true below, but the
    // event counter only registers fresh depletions.
    ++depletion_events_;
  }
  return zero_streak_ >= gamma_;
}

void GammaWindowMonitor::reset() noexcept {
  zero_streak_ = 0;
  observations_ = 0;
}

void GammaWindowMonitor::save_state(std::string& out) const {
  common::put_u64(out, zero_streak_);
  common::put_u64(out, observations_);
  common::put_u64(out, depletion_events_);
}

void GammaWindowMonitor::restore_state(common::ByteReader& in) {
  zero_streak_ = static_cast<std::size_t>(in.u64("monitor zero streak"));
  observations_ = in.u64("monitor observations");
  depletion_events_ = in.u64("monitor depletion events");
}

}  // namespace mabfuzz::coverage
