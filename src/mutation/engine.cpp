#include "mutation/engine.hpp"

namespace mabfuzz::mutation {

Engine::Engine(const EngineConfig& config, common::Xoshiro256StarStar rng,
               std::shared_ptr<OperatorPolicy> policy)
    : config_(config), rng_(rng), policy_(std::move(policy)) {
  if (!policy_) {
    policy_ = std::make_shared<StaticPolicy>(config_.weights);
  }
}

std::vector<isa::Word> Engine::mutate(const std::vector<isa::Word>& parent,
                                      std::vector<Op>* applied_ops) {
  std::vector<isa::Word> mutant = parent;
  if (mutant.empty()) {
    return mutant;
  }
  const unsigned burst =
      1 + static_cast<unsigned>(rng_.next_index(config_.max_ops_per_mutant));
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
