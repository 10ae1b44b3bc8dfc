#include "mab/epsilon_greedy.hpp"

namespace mabfuzz::mab {

EpsilonGreedy::EpsilonGreedy(std::size_t num_arms, double epsilon,
                             common::Xoshiro256StarStar rng)
    : Bandit(num_arms), epsilon_(epsilon), rng_(rng), q_(num_arms, 0.0),
      n_(num_arms, 0) {}

std::size_t EpsilonGreedy::select() {
  if (rng_.next_bool(epsilon_)) {
    return rng_.next_index(num_arms());
  }
  return argmax_random_ties([this](std::size_t a) { return q_[a]; }, rng_);
}

void EpsilonGreedy::update(std::size_t arm, double reward) {
  if (arm >= num_arms()) {
    return;
  }
  ++n_[arm];
  q_[arm] += (reward - q_[arm]) / static_cast<double>(n_[arm]);
}

void EpsilonGreedy::save_state(std::string& out) const {
  for (std::size_t a = 0; a < num_arms(); ++a) {
    state_put_f64(out, q_[a]);
    state_put_u64(out, n_[a]);
  }
  state_put_rng(out, rng_);
}

void EpsilonGreedy::restore_state(common::ByteReader& in) {
  for (std::size_t a = 0; a < num_arms(); ++a) {
    q_[a] = in.f64("epsilon-greedy value estimate");
    n_[a] = in.u64("epsilon-greedy pull count");
  }
  rng_ = in.rng("epsilon-greedy rng");
}

void EpsilonGreedy::reset_arm(std::size_t arm) {
  if (arm >= num_arms()) {
    return;
  }
  n_[arm] = 0;
  q_[arm] = 0.0;
}

}  // namespace mabfuzz::mab
