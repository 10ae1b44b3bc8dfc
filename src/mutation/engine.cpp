#include "mutation/engine.hpp"

namespace mabfuzz::mutation {

namespace {

/// Operators applied per mutant (1..max, uniformly chosen).
constexpr unsigned kMaxOpsPerMutant = 2;

/// Static operator weights (TheHuzz profiles these offline; these mirror
/// its bias toward fine-grained bit/arith operators).
constexpr std::array<double, kNumOps> kOperatorWeights = {
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

}  // namespace

Engine::Engine(common::Xoshiro256StarStar rng,
               std::shared_ptr<OperatorPolicy> policy)
    : rng_(rng), policy_(std::move(policy)) {
  if (!policy_) {
    policy_ = std::make_shared<StaticPolicy>(kOperatorWeights);
  }
}

std::vector<isa::Word> Engine::mutate(const std::vector<isa::Word>& parent,
                                      std::vector<Op>* applied_ops) {
  std::vector<isa::Word> mutant = parent;
  if (mutant.empty()) {
    return mutant;
  }
  const unsigned burst =
      1 + static_cast<unsigned>(rng_.next_index(kMaxOpsPerMutant));
  unsigned applied = 0;
  unsigned attempts = 0;
  while (applied < burst && attempts < burst * 8) {
    ++attempts;
    const Op op = policy_->choose(rng_);
    if (apply(op, mutant, rng_)) {
      ++op_counts_[static_cast<std::size_t>(op)];
      if (applied_ops != nullptr) {
        applied_ops->push_back(op);
      }
      ++applied;
    }
  }
  return mutant;
}

void Engine::save_state(std::string& out) const {
  common::put_rng(out, rng_);
  for (const std::uint64_t count : op_counts_) {
    common::put_u64(out, count);
  }
  policy_->save_state(out);
}

void Engine::restore_state(common::ByteReader& in) {
  rng_ = in.rng("mutation rng");
  for (std::uint64_t& count : op_counts_) {
    count = in.u64("mutation operator count");
  }
  policy_->restore_state(in);
}

}  // namespace mabfuzz::mutation
