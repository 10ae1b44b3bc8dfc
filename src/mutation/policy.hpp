#pragma once
// Operator-selection policy for the mutation engine.
//
// TheHuzz (and the MABFuzz paper's evaluation) pick operators from a
// *static* profiled distribution. The paper's Discussion (Sec. V) proposes
// driving this choice with MAB algorithms too; the OperatorPolicy
// interface is the seam that makes both selectable: StaticPolicy
// reproduces the paper's setup, core::MabOperatorPolicy implements the
// proposed extension.

#include <array>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "mutation/operators.hpp"

namespace mabfuzz::mutation {

class OperatorPolicy {
 public:
  virtual ~OperatorPolicy() = default;

  /// Chooses the next operator to apply.
  [[nodiscard]] virtual Op choose(common::Xoshiro256StarStar& rng) = 0;

  /// Feedback after the mutant produced by `op` was executed; `reward` is
  /// 1 when the mutant covered new points for its arm, else 0. Policies
  /// that do not learn ignore it.
  virtual void feedback(Op op, double reward);

  /// Appends the policy's learned state to `out`; restore_state() reads
  /// exactly those bytes back (checkpoint resume, harness/checkpoint.hpp).
  virtual void save_state(std::string& out) const = 0;
  virtual void restore_state(common::ByteReader& in) = 0;
};

/// TheHuzz's static profiled operator distribution.
class StaticPolicy final : public OperatorPolicy {
 public:
  explicit StaticPolicy(const std::array<double, kNumOps>& weights)
      : weights_(weights) {}

  [[nodiscard]] Op choose(common::Xoshiro256StarStar& rng) override;

  /// Static weights learn nothing: no state.
  void save_state(std::string& /*out*/) const override {}
  void restore_state(common::ByteReader& /*in*/) override {}

 private:
  std::array<double, kNumOps> weights_;
};

}  // namespace mabfuzz::mutation
