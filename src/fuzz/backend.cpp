#include "fuzz/backend.hpp"

#include <vector>

namespace mabfuzz::fuzz {

Backend::Backend(const BackendConfig& config)
    : config_(config),
      dut_(soc::core_params(config.core, config.bugs)),
      golden_(soc::golden_config_for(config.core)),
      seedgen_(config.seedgen,
               common::make_stream(config.rng_seed, config.rng_run, "seedgen")),
      mutation_(config.mutation,
                common::make_stream(config.rng_seed, config.rng_run, "mutation"),
                config.operator_policy) {}

TestOutcome Backend::run_test(const TestCase& test) {
  TestOutcome outcome;
  run_test(test, outcome);
  return outcome;
}

void Backend::run_test(const TestCase& test, TestOutcome& out) {
  ++tests_executed_;
  // One shared decode cache serves both simulators: the pipeline's fetches
  // warm entries the ISS reuses (and vice versa on trap-handler detours).
  scratch_.decoded.build(test.words);
  dut_.run(test.words, scratch_.decoded, scratch_.dut_out);
  golden_.run(test.words, scratch_.decoded, scratch_.golden_out);

  // Swap, don't copy: the outcome takes this test's buffers; the scratch
  // takes the caller's previous ones, recycled on the next run.
  out.coverage.swap(scratch_.dut_out.test_coverage);
  out.firings.swap(scratch_.dut_out.firings);
  out.dut_cycles = scratch_.dut_out.cycles;
  out.commits = scratch_.dut_out.arch.commits.size();
  out.mismatch = false;
  out.mismatch_description.clear();
  out.mismatch_commit = 0;
  if (const auto mismatch =
          compare(scratch_.dut_out.arch, scratch_.golden_out)) {
    out.mismatch = true;
    out.mismatch_description = mismatch->description;
    out.mismatch_commit = mismatch->commit_index;
  }
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

}  // namespace mabfuzz::fuzz
