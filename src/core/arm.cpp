#include "core/arm.hpp"

namespace mabfuzz::core {

Arm::Arm(fuzz::TestCase seed, std::size_t coverage_universe, std::size_t gamma,
         std::size_t pool_cap)
    : seed_(seed), pool_(pool_cap), coverage_(coverage_universe),
      monitor_(gamma) {
  pool_.push(std::move(seed));
}

fuzz::TestCase Arm::next() {
  ++pulls_;
  return *pool_.pop();
}

void Arm::reset(fuzz::TestCase new_seed) {
  seed_ = new_seed;
  pool_.clear();
  pool_.push(std::move(new_seed));
  coverage_.clear();
  monitor_.reset();
  ++resets_;
}

void Arm::save_state(std::string& out) const {
  fuzz::put_test(out, seed_);
  pool_.save_state(out);
  coverage_.save_state(out);
  monitor_.save_state(out);
  common::put_u64(out, pulls_);
  common::put_u64(out, resets_);
}

void Arm::restore_state(common::ByteReader& in) {
  seed_ = fuzz::read_test(in);
  pool_.restore_state(in);
  coverage_.restore_state(in);
  monitor_.restore_state(in);
  pulls_ = in.u64("arm pulls");
  resets_ = in.u64("arm resets");
}

}  // namespace mabfuzz::core
