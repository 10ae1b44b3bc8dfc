#pragma once
// The mutation engine: picks operators according to TheHuzz's static
// operator distribution and applies a small burst of them to produce each
// mutant. (MABFuzz deliberately keeps the *mutation* policy identical
// between the baseline and the MAB-scheduled fuzzer — only seed selection
// differs — so the engine is shared substrate.)

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "mutation/operators.hpp"
#include "mutation/policy.hpp"

namespace mabfuzz::mutation {

class Engine {
 public:
  /// With no policy, operators follow TheHuzz's static weights (a
  /// StaticPolicy over engine.cpp's profiled table). A shared policy enables
  /// adaptive selection — shared so a scheduler can feed coverage rewards
  /// back into it.
  explicit Engine(common::Xoshiro256StarStar rng,
                  std::shared_ptr<OperatorPolicy> policy = nullptr);

  /// Produces one mutant of `parent` (at least one operator is applied;
  /// inapplicable draws are retried a bounded number of times). When
  /// `applied_ops` is non-null it receives the operators that took effect.
  [[nodiscard]] std::vector<isa::Word> mutate(
      const std::vector<isa::Word>& parent,
      std::vector<Op>* applied_ops = nullptr);

  /// How many times each operator has been applied (for reports/tests).
  [[nodiscard]] const std::array<std::uint64_t, kNumOps>& op_counts() const noexcept {
    return op_counts_;
  }

  [[nodiscard]] OperatorPolicy& policy() noexcept { return *policy_; }

  /// The RNG stream, the operator counts and the operator policy's state;
  /// restore_state() is the exact inverse.
  void save_state(std::string& out) const;
  void restore_state(common::ByteReader& in);

 private:
  common::Xoshiro256StarStar rng_;
  std::shared_ptr<OperatorPolicy> policy_;
  std::array<std::uint64_t, kNumOps> op_counts_{};
};

}  // namespace mabfuzz::mutation
