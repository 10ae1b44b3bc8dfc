#include "mab/thompson.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace mabfuzz::mab {

Thompson::Thompson(std::size_t num_arms, common::Xoshiro256StarStar rng)
    : Bandit(num_arms), rng_(rng), mean_(num_arms, 0.0), n_(num_arms, 0) {}

double Thompson::gaussian() {
  // Box-Muller on the deterministic stream.
  const double u1 = std::max(rng_.next_double(), 1e-12);
  const double u2 = rng_.next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::size_t Thompson::select() {
  std::size_t best = 0;
  double best_sample = -1e300;
  for (std::size_t a = 0; a < num_arms(); ++a) {
    const double sigma = 1.0 / std::sqrt(static_cast<double>(n_[a]) + 1.0);
    const double sample = mean_[a] + sigma * gaussian();
    if (sample > best_sample) {
      best_sample = sample;
      best = a;
    }
  }
  return best;
}

void Thompson::update(std::size_t arm, double reward) {
  if (arm >= num_arms()) {
    return;
  }
  ++n_[arm];
  mean_[arm] += (reward - mean_[arm]) / static_cast<double>(n_[arm]);
}

void Thompson::save_state(std::string& out) const {
  for (std::size_t a = 0; a < num_arms(); ++a) {
    state_put_f64(out, mean_[a]);
    state_put_u64(out, n_[a]);
  }
  state_put_rng(out, rng_);
}

void Thompson::restore_state(common::ByteReader& in) {
  for (std::size_t a = 0; a < num_arms(); ++a) {
    mean_[a] = in.f64("thompson posterior mean");
    n_[a] = in.u64("thompson pull count");
  }
  rng_ = in.rng("thompson rng");
}

void Thompson::reset_arm(std::size_t arm) {
  if (arm >= num_arms()) {
    return;
  }
  mean_[arm] = 0.0;
  n_[arm] = 0;
}

}  // namespace mabfuzz::mab
