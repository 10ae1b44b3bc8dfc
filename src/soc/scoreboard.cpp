#include "soc/scoreboard.hpp"

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

}  // namespace mabfuzz::soc
