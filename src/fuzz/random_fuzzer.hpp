#pragma once
// Random-regression baseline: fresh random seeds only, no coverage
// feedback, no mutation — the pre-fuzzing verification practice the
// paper's introduction contrasts hardware fuzzers against. Useful as a
// scientific control: any fuzzer worth its name must beat this.

#include "fuzz/backend.hpp"
#include "fuzz/fuzzer.hpp"

namespace mabfuzz::fuzz {

class RandomFuzzer final : public Fuzzer {
 public:
  explicit RandomFuzzer(Backend& backend)
      : backend_(backend), accumulated_(backend.coverage_universe()) {}

  StepResult step() override {
    const TestCase test = backend_.make_seed();
    backend_.run_test(test, outcome_);
    StepResult result;
    result.test_index = ++steps_;
    result.mismatch = outcome_.mismatch;
    result.firings = outcome_.firings;
    result.new_global_points = accumulated_.absorb(outcome_.coverage);
    return result;
  }

  [[nodiscard]] const coverage::Accumulator& accumulated() const override {
    return accumulated_;
  }
  [[nodiscard]] std::string_view name() const override {
    return "RandomRegression";
  }

  /// The coverage map and steps; every test is a fresh backend seed.
  void save_state(std::string& out) const override {
    accumulated_.save_state(out);
    common::put_u64(out, steps_);
  }
  void restore_state(common::ByteReader& in) override {
    accumulated_.restore_state(in);
    steps_ = in.u64("random steps");
  }

 private:
  Backend& backend_;
  coverage::Accumulator accumulated_;
  TestOutcome outcome_;  // reused across steps (backend scratch swap)
  std::uint64_t steps_ = 0;
};

}  // namespace mabfuzz::fuzz
