#pragma once
// Integer execution cluster of the substrate cores: ALU, shifter,
// comparator and the multiply/divide unit, with per-lane result-condition
// and datapath-toggle coverage. Implemented as an independent datapath
// (not a call into the golden ISS): the integration suite proves it
// bit-equivalent to the ISS on random programs, which is exactly the
// guarantee a verified RTL execution unit would carry.

#include <cstdint>

#include "common/fastmod.hpp"
#include "coverage/context.hpp"
#include "isa/opcode.hpp"

namespace mabfuzz::soc {

struct ExecUnitParams {
  unsigned lanes = 1;
  unsigned toggle_buckets = 16;  // per-mnemonic result-toggle sub-points
};

class ExecUnit {
 public:
  ExecUnit(const ExecUnitParams& params, coverage::Context& ctx);

  struct Result {
    std::uint64_t value = 0;  // rd value; for branches 1/0 = taken/not
    unsigned latency = 1;     // result latency in cycles
  };

  /// Executes an ALU / shift / compare / mul-div / LUI / AUIPC / JAL(R)-link
  /// / branch-compare instruction. `a`/`b` are the source operand values;
  /// `lane` must be below `lanes`.
  Result execute(const isa::Instruction& instr, std::uint64_t pc,
                 std::uint64_t a, std::uint64_t b, unsigned lane,
                 coverage::Context& ctx);

  [[nodiscard]] const ExecUnitParams& params() const noexcept { return params_; }

 private:
  void hit_result_points(const isa::Instruction& instr, std::uint64_t a,
                         std::uint64_t b, std::uint64_t result, unsigned lane,
                         coverage::Context& ctx);

  ExecUnitParams params_;
  // Division-free `% toggle_buckets` for the per-instruction result-toggle
  // hash (bit-identical to `%`; common/fastmod.hpp).
  common::FastMod toggle_mod_;

  coverage::PointId cov_condition_ = 0;  // per lane * mnemonic * 6
  coverage::PointId cov_toggle_ = 0;     // per lane * mnemonic * buckets
  coverage::PointId cov_div_latency_ = 0;  // per lane * 9 latency buckets
  coverage::PointId cov_mul_path_ = 0;     // per lane * 4 operand classes
};

}  // namespace mabfuzz::soc
