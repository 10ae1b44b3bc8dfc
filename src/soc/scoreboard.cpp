#include "soc/scoreboard.hpp"

#include <bit>

namespace mabfuzz::soc {

Scoreboard::Scoreboard(coverage::Context& ctx) {
  auto& reg = ctx.registry();
  cov_write_ = reg.add_array("scoreboard/write_reg", isa::kNumRegs);
  cov_raw_stall_ = reg.add_array("scoreboard/raw_stall_reg", isa::kNumRegs);
  cov_bypass_ = reg.add_array("scoreboard/bypass_reg", isa::kNumRegs);
  cov_read_ = reg.add_array("scoreboard/read_reg", isa::kNumRegs);
}

void Scoreboard::reset() noexcept { busy_ = 0; }

void Scoreboard::flush() noexcept { busy_ = 0; }

std::uint32_t Scoreboard::live_mask(std::uint64_t now) const noexcept {
  std::uint32_t live = 0;
  for (std::uint32_t busy = busy_; busy != 0; busy &= busy - 1) {
    const auto r = static_cast<unsigned>(std::countr_zero(busy));
    live |= ready_cycle_[r] > now ? 1u << r : 0u;
  }
  return live;
}

void Scoreboard::capture(std::uint64_t now, Snapshot& out) const noexcept {
  out.live = live_mask(now);
  for (std::uint32_t live = out.live; live != 0; live &= live - 1) {
    const auto r = static_cast<unsigned>(std::countr_zero(live));
    out.wait[r] = ready_cycle_[r] - now;
  }
}

bool Scoreboard::matches(const Snapshot& snapshot, std::uint64_t now) const noexcept {
  if (live_mask(now) != snapshot.live) {
    return false;
  }
  for (std::uint32_t live = snapshot.live; live != 0; live &= live - 1) {
    const auto r = static_cast<unsigned>(std::countr_zero(live));
    if (ready_cycle_[r] - now != snapshot.wait[r]) {
      return false;
    }
  }
  return true;
}

void Scoreboard::delay(std::uint64_t cycles) noexcept {
  for (std::uint32_t busy = busy_; busy != 0; busy &= busy - 1) {
    ready_cycle_[static_cast<unsigned>(std::countr_zero(busy))] += cycles;
  }
}

}  // namespace mabfuzz::soc
