#include "fuzz/backend.hpp"

#include <vector>

namespace mabfuzz::fuzz {

Backend::Backend(const BackendConfig& config)
    : config_(config),
      dut_(soc::core_params(config.core, config.bugs)),
      golden_(soc::golden_config_for(config.core)),
      seedgen_(common::make_stream(config.rng_seed, config.rng_run, "seedgen")),
      mutation_(
          common::make_stream(config.rng_seed, config.rng_run, "mutation"),
          config.operator_policy) {}

const TestOutcome& Backend::run_test(const TestCase& test) {
  ++tests_executed_;
  // One shared decode cache serves both simulators: the pipeline's fetches
  // warm entries the ISS reuses (and vice versa on trap-handler detours).
  decoded_.build(test.words);
  dut_.run(test.words, decoded_, outcome_.dut);
  const std::size_t checked =
      golden_.check(test.words, decoded_, outcome_.dut.arch.commits, golden_out_);
  outcome_.mismatch = compare(outcome_.dut.arch, golden_out_, checked);
  return outcome_;
}

TestCase Backend::make_seed() { return make_seed(0); }

TestCase Backend::make_seed(unsigned length) {
  TestCase test;
  test.id = next_test_id_++;
  test.seed_id = test.id;
  test.parent_id = 0;
  test.generation = 0;
  test.words = seedgen_.next_program(length);
  return test;
}

TestCase Backend::make_mutant(const TestCase& parent) {
  TestCase test;
  test.id = next_test_id_++;
  test.seed_id = parent.seed_id;
  test.parent_id = parent.id;
  test.generation = parent.generation + 1;
  std::vector<mutation::Op> applied;
  test.words = mutation_.mutate(parent.words, &applied);
  test.mutation_ops.reserve(applied.size());
  for (const mutation::Op op : applied) {
    test.mutation_ops.push_back(static_cast<std::uint8_t>(op));
  }
  return test;
}

void Backend::save_state(std::string& out) const {
  seedgen_.save_state(out);
  mutation_.save_state(out);
  common::put_u64(out, next_test_id_);
  common::put_u64(out, tests_executed_);
}

void Backend::restore_state(common::ByteReader& in) {
  seedgen_.restore_state(in);
  mutation_.restore_state(in);
  next_test_id_ = in.u64("next test id");
  tests_executed_ = in.u64("backend tests executed");
}

}  // namespace mabfuzz::fuzz
