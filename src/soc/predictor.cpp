#include "soc/predictor.hpp"

namespace mabfuzz::soc {

BranchPredictor::BranchPredictor(const PredictorParams& params,
                                 coverage::Context& ctx)
    : params_(params), entries_(params.btb_entries) {
  touched_.reserve(params_.btb_entries);
  auto& reg = ctx.registry();
  cov_hit_ = reg.add_array("btb/hit", params_.btb_entries);
  cov_alloc_ = reg.add_array("btb/alloc", params_.btb_entries);
  cov_mispredict_ = reg.add_array("btb/mispredict", params_.btb_entries);
  cov_ctr_sat_taken_ = reg.add_array("btb/ctr_sat_taken", params_.btb_entries);
  cov_ctr_sat_not_taken_ =
      reg.add_array("btb/ctr_sat_not_taken", params_.btb_entries);
  cov_conflict_ = reg.add_array("btb/conflict_replace", params_.btb_entries);
}

void BranchPredictor::reset() noexcept {
  // Only allocated entries can differ from Entry{} observably: predict()
  // and the training path gate on valid, and allocation rewrites the tag
  // and counter. Clearing just those keeps reset O(branches seen).
  for (const std::uint32_t index : touched_) {
    entries_[index] = Entry{};
  }
  touched_.clear();
}

unsigned BranchPredictor::index_of(std::uint64_t pc) const noexcept {
  return static_cast<unsigned>((pc >> 2) & (params_.btb_entries - 1));
}

std::uint64_t BranchPredictor::tag_of(std::uint64_t pc) const noexcept {
  return pc >> 2 >> 10;  // a few tag bits beyond the index, like a small BTB
}

BranchPredictor::Prediction BranchPredictor::predict(std::uint64_t pc,
                                                     coverage::Context& ctx) {
  const unsigned index = index_of(pc);
  Entry& e = entries_[index];
  Prediction p;
  if (e.valid && e.tag == tag_of(pc)) {
    p.btb_hit = true;
    p.predict_taken = e.counter >= 2;
    ctx.hit(cov_hit_, index);
  }
  return p;
}

void BranchPredictor::update(std::uint64_t pc, bool taken, bool mispredicted,
                             coverage::Context& ctx) {
  const unsigned index = index_of(pc);
  Entry& e = entries_[index];
  const std::uint64_t tag = tag_of(pc);

  if (!e.valid || e.tag != tag) {
    if (e.valid) {
      ctx.hit(cov_conflict_, index);
    } else {
      touched_.push_back(index);
    }
    e.valid = true;
    e.tag = tag;
    e.counter = taken ? 2 : 1;
    ctx.hit(cov_alloc_, index);
  } else {
    if (taken && e.counter < 3) {
      ++e.counter;
    } else if (!taken && e.counter > 0) {
      --e.counter;
    }
  }
  if (mispredicted) {
    ctx.hit(cov_mispredict_, index);
  }
  if (e.counter == 3) {
    ctx.hit(cov_ctr_sat_taken_, index);
  } else if (e.counter == 0) {
    ctx.hit(cov_ctr_sat_not_taken_, index);
  }
}

void BranchPredictor::capture(Snapshot& out) const {
  out.entries.clear();
  for (const std::uint32_t index : touched_) {
    const Entry& e = entries_[index];
    out.entries.push_back(Snapshot::Valid{index, e.counter, e.tag});
  }
}

bool BranchPredictor::matches(const Snapshot& snapshot) const noexcept {
  // Equal counts and every captured entry unchanged: no entry became valid.
  if (touched_.size() != snapshot.entries.size()) {
    return false;
  }
  for (const Snapshot::Valid& v : snapshot.entries) {
    const Entry& e = entries_[v.index];
    if (e.tag != v.tag || e.counter != v.counter) {
      return false;
    }
  }
  return true;
}

}  // namespace mabfuzz::soc
