#include "mab/ucb.hpp"

#include <cmath>
#include <limits>

namespace mabfuzz::mab {

Ucb::Ucb(std::size_t num_arms, common::Xoshiro256StarStar rng)
    : Bandit(num_arms), rng_(rng), q_(num_arms, 0.0), n_(num_arms, 0) {}

std::size_t Ucb::select() {
  const double log_t = std::log(static_cast<double>(t_ + 1));
  return argmax_random_ties(
      [&](std::size_t a) {
        if (n_[a] == 0) {
          return std::numeric_limits<double>::infinity();
        }
        return q_[a] + std::sqrt(2.0 * log_t / static_cast<double>(n_[a]));
      },
      rng_);
}

void Ucb::update(std::size_t arm, double reward) {
  if (arm >= num_arms()) {
    return;
  }
  ++t_;
  ++n_[arm];
  q_[arm] += (reward - q_[arm]) / static_cast<double>(n_[arm]);
}

void Ucb::save_state(std::string& out) const {
  state_put_u64(out, t_);
  for (std::size_t a = 0; a < num_arms(); ++a) {
    state_put_f64(out, q_[a]);
    state_put_u64(out, n_[a]);
  }
  state_put_rng(out, rng_);
}

void Ucb::restore_state(common::ByteReader& in) {
  t_ = in.u64("ucb total pulls");
  for (std::size_t a = 0; a < num_arms(); ++a) {
    q_[a] = in.f64("ucb value estimate");
    n_[a] = in.u64("ucb pull count");
  }
  rng_ = in.rng("ucb rng");
}

void Ucb::reset_arm(std::size_t arm) {
  if (arm >= num_arms()) {
    return;
  }
  n_[arm] = 0;
  q_[arm] = 0.0;
}

}  // namespace mabfuzz::mab
