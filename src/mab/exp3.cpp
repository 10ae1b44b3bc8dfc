#include "mab/exp3.hpp"

#include <algorithm>
#include <cmath>

namespace mabfuzz::mab {

Exp3::Exp3(std::size_t num_arms, double eta, common::Xoshiro256StarStar rng)
    : Bandit(num_arms), eta_(eta), rng_(rng), w_(num_arms, 1.0) {}

std::vector<double> Exp3::probabilities() const {
  const std::size_t n = num_arms();
  double total = 0.0;
  for (double w : w_) {
    total += w;
  }
  std::vector<double> p(n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    p[a] = (1.0 - eta_) * (w_[a] / total) + eta_ / static_cast<double>(n);
  }
  return p;
}

std::size_t Exp3::select() {
  const std::vector<double> p = probabilities();
  std::size_t chosen = rng_.next_weighted(p);
  if (chosen >= num_arms()) {
    chosen = 0;  // degenerate distribution; cannot happen with eta > 0
  }
  last_selected_ = chosen;
  last_prob_ = std::max(p[chosen], 1e-12);
  return chosen;
}

void Exp3::update(std::size_t arm, double reward) {
  if (arm >= num_arms()) {
    return;
  }
  // Callers normalise reward into [0,1]; clamp to keep exp() bounded even
  // if a caller slips.
  reward = std::clamp(reward, 0.0, 1.0);
  const double prob = arm == last_selected_ ? last_prob_ : 1.0;
  const double x = reward / prob;
  w_[arm] *= std::exp(eta_ * x / static_cast<double>(num_arms()));
  renormalize_if_needed();
}

void Exp3::reset_arm(std::size_t arm) {
  if (arm >= num_arms()) {
    return;
  }
  // W(A) <- mean weight of the other arms (Algorithm 2, line 10).
  double total = 0.0;
  for (std::size_t a = 0; a < num_arms(); ++a) {
    if (a != arm) {
      total += w_[a];
    }
  }
  const std::size_t others = num_arms() > 1 ? num_arms() - 1 : 1;
  w_[arm] = total / static_cast<double>(others);
}

void Exp3::save_state(std::string& out) const {
  for (std::size_t a = 0; a < num_arms(); ++a) {
    state_put_f64(out, w_[a]);
  }
  state_put_u64(out, last_selected_);
  state_put_f64(out, last_prob_);
  state_put_rng(out, rng_);
}

void Exp3::restore_state(common::ByteReader& in) {
  for (std::size_t a = 0; a < num_arms(); ++a) {
    w_[a] = in.f64("exp3 weight");
  }
  last_selected_ = static_cast<std::size_t>(in.u64("exp3 last selection"));
  last_prob_ = in.f64("exp3 last probability");
  rng_ = in.rng("exp3 rng");
}

void Exp3::renormalize_if_needed() {
  const double max_w = *std::max_element(w_.begin(), w_.end());
  if (max_w > 1e100) {
    for (double& w : w_) {
      w /= max_w;
      w = std::max(w, 1e-100);
    }
  }
}

}  // namespace mabfuzz::mab
