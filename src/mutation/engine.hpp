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

struct EngineConfig {
  /// Operators applied per mutant (1..max, uniformly chosen).
  unsigned max_ops_per_mutant = 2;
  /// Static operator weights (TheHuzz profiles these offline; the defaults
  /// mirror its bias toward fine-grained bit/arith operators).
  std::array<double, kNumOps> weights = {
      3.0,  // bitflip1
      2.0,  // bitflip2
      2.0,  // bitflip4
      1.5,  // byteflip
      1.5,  // arith8
      1.0,  // arith16
      1.0,  // arith32
      1.5,  // random_byte
      1.0,  // random_word
      2.0,  // opcode_swap
      2.5,  // operand_shuffle
      0.5,  // instr_delete
      1.0,  // instr_clone
      0.5,  // instr_swap
  };
};

class Engine {
 public:
  /// With no policy, operators follow the config's static weights
  /// (TheHuzz's behaviour). A shared policy enables adaptive selection —
  /// shared so a scheduler can feed coverage rewards back into it.
  Engine(const EngineConfig& config, common::Xoshiro256StarStar rng,
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
  EngineConfig config_;
  common::Xoshiro256StarStar rng_;
  std::shared_ptr<OperatorPolicy> policy_;
  std::array<std::uint64_t, kNumOps> op_counts_{};
};

}  // namespace mabfuzz::mutation
