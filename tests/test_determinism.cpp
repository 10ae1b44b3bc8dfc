// Seeded-determinism regression: two MABFuzz runs built from the same
// PolicyConfig and RNG seeds must replay the exact same experiment —
// identical arm-selection sequences, coverage totals, resets and mismatch
// flags — and a whole trial matrix must produce byte-identical aggregate
// statistics no matter how many worker threads execute it.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/corpus.hpp"

#include "core/scheduler.hpp"
#include "fuzz/backend.hpp"
#include "harness/experiment.hpp"
#include "mab/registry.hpp"
#include "soc/bugs.hpp"
#include "soc/cores.hpp"

namespace mabfuzz {
namespace {

struct RunTrace {
  std::vector<std::size_t> arms;
  std::vector<std::size_t> new_points;
  std::vector<bool> mismatches;
  std::size_t covered = 0;
  std::uint64_t resets = 0;
};

RunTrace run_once(std::string_view algorithm, std::uint64_t seed, int steps) {
  fuzz::BackendConfig backend_config;
  backend_config.core = soc::CoreKind::kRocket;
  backend_config.bugs = soc::default_bugs(soc::CoreKind::kRocket);
  backend_config.rng_seed = seed;
  fuzz::Backend backend(backend_config);

  fuzz::PolicyConfig policy;
  policy.bandit.num_arms = 5;
  policy.bandit.rng_seed = seed;
  core::MabScheduler fuzzer(backend, mab::make_bandit(algorithm, policy.bandit),
                            policy);

  RunTrace trace;
  for (int t = 0; t < steps; ++t) {
    const fuzz::StepResult result = fuzzer.step();
    // .value() throws (failing the test loudly) if the scheduler ever
    // stops reporting its selected arm.
    trace.arms.push_back(result.arm.value());
    trace.new_points.push_back(result.new_global_points);
    trace.mismatches.push_back(result.mismatch);
  }
  trace.covered = fuzzer.accumulated().covered();
  trace.resets = fuzzer.total_resets();
  return trace;
}

class DeterminismTest : public ::testing::TestWithParam<std::string_view> {};

TEST_P(DeterminismTest, SameSeedReplaysIdentically) {
  const auto a = run_once(GetParam(), /*seed=*/1234, /*steps=*/300);
  const auto b = run_once(GetParam(), /*seed=*/1234, /*steps=*/300);
  EXPECT_EQ(a.arms, b.arms) << "arm-selection sequence diverged";
  EXPECT_EQ(a.new_points, b.new_points);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.covered, b.covered) << "coverage total diverged";
  EXPECT_EQ(a.resets, b.resets);
}

TEST_P(DeterminismTest, RunMakesProgress) {
  // Sanity guard for the regression above: a trace that covers nothing would
  // make the equality checks vacuous.
  const auto a = run_once(GetParam(), /*seed=*/1234, /*steps=*/300);
  EXPECT_GT(a.covered, 0u);
  EXPECT_EQ(a.arms.size(), 300u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DeterminismTest,
                         ::testing::Values("ucb", "epsilon-greedy", "exp3",
                                           "thompson"),
                         [](const auto& param_info) {
                           // gtest parameter names must be alphanumeric
                           // ("epsilon-greedy" has a hyphen).
                           std::string name(param_info.param);
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(static_cast<unsigned char>(c));
                           });
                           return name;
                         });

// --- determinism under concurrency ----------------------------------------------

// The same trial matrix + seeds must produce byte-identical aggregate
// statistics with 1, 2 and 8 workers: per-trial RNG streams derive from
// (seed, run_index) only, results land in matrix-expansion order, and
// aggregation runs after the pool drains. Compared as serialized artifacts
// (timing excluded — wall clock is the one legitimately non-deterministic
// field), so any ordering or aggregation drift fails the string equality.
TEST(ExperimentDeterminism, AggregateStatsByteIdenticalAcrossWorkerCounts) {
  harness::TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kRocket;
  matrix.base.bugs = soc::default_bugs(soc::CoreKind::kRocket);
  matrix.base.max_tests = 50;
  matrix.base.snapshot_every = 25;
  matrix.base.rng_seed = 1234;
  matrix.fuzzers = {"thehuzz", "ucb", "exp3"};
  matrix.trials = 4;

  auto artifact = [&](unsigned workers) {
    harness::ExperimentOptions options;
    options.workers = workers;
    const harness::ExperimentResult result =
        harness::Experiment(matrix, options).run();
    harness::ArtifactOptions artifact_options;
    artifact_options.include_timing = false;
    std::ostringstream os;
    harness::write_experiment_json(os, result, artifact_options);
    harness::write_trials_csv(os, result, artifact_options);
    return os.str();
  };

  const std::string serial = artifact(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, artifact(2)) << "2-worker run diverged from serial";
  EXPECT_EQ(serial, artifact(8)) << "8-worker run diverged from serial";
}

// A corpus round trip is part of the same contract: campaigns reloading a
// saved mabfuzz-corpus-v2 store must replay byte-identically for the same
// seeds no matter how many workers execute the matrix (the corpus is
// read-only shared input; every trial re-materialises its own copy).
TEST(ExperimentDeterminism, ReloadedCorpusCampaignByteIdenticalAcrossWorkers) {
  const std::string path = testing::TempDir() + "determinism_corpus.bin";
  {
    harness::CampaignConfig warmup;
    warmup.fuzzer = "reuse";
    warmup.core = soc::CoreKind::kRocket;
    warmup.bugs = soc::BugSet::none();
    warmup.max_tests = 200;
    warmup.rng_seed = 4321;
    warmup.corpus_out = path;
    harness::Campaign campaign(warmup);
    campaign.run();
    ASSERT_TRUE(campaign.save_corpus());
    ASSERT_GT(campaign.corpus()->size(), 0u);
  }

  harness::TrialMatrix matrix;
  matrix.base.fuzzer = "reuse";
  matrix.base.core = soc::CoreKind::kRocket;
  matrix.base.bugs = soc::default_bugs(soc::CoreKind::kRocket);
  matrix.base.max_tests = 60;
  matrix.base.snapshot_every = 30;
  matrix.base.rng_seed = 1234;
  matrix.base.corpus_in = path;
  matrix.trials = 4;

  auto artifact = [&](unsigned workers) {
    harness::ExperimentOptions options;
    options.workers = workers;
    const harness::ExperimentResult result =
        harness::Experiment(matrix, options).run();
    EXPECT_EQ(result.failed_trials, 0u);
    harness::ArtifactOptions artifact_options;
    artifact_options.include_timing = false;
    std::ostringstream os;
    harness::write_experiment_json(os, result, artifact_options);
    harness::write_trials_csv(os, result, artifact_options);
    return os.str();
  };

  const std::string serial = artifact(1);
  EXPECT_NE(serial.find("corpus_entries"), std::string::npos)
      << "artifact lost the corpus provenance fields";
  EXPECT_EQ(serial, artifact(2)) << "2-worker warm run diverged from serial";
  EXPECT_EQ(serial, artifact(8)) << "8-worker warm run diverged from serial";
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

// Sharded corpus federation closes the loop: a matrix with corpus_out has
// every trial write its own `<target>.shard-<index>` store, merged
// post-barrier in spec-index order with Corpus::merge's canonical
// re-offer. Both the experiment artifacts (shard provenance included) and
// the merged corpus file must be byte-identical for 1, 2 and 8 workers —
// shard *completion* order varies with scheduling, but nothing of it may
// reach the merged bytes.
TEST(ExperimentDeterminism, ShardedCorpusMergeByteIdenticalAcrossWorkers) {
  const std::string path = testing::TempDir() + "determinism_federated.bin";
  auto run_with = [&](unsigned workers) {
    harness::TrialMatrix matrix;
    matrix.base.fuzzer = "reuse";
    matrix.base.core = soc::CoreKind::kRocket;
    matrix.base.bugs = soc::BugSet::none();
    matrix.base.max_tests = 60;
    matrix.base.snapshot_every = 30;
    matrix.base.rng_seed = 1234;
    matrix.base.corpus_out = path;
    matrix.fuzzers = {"reuse", "thehuzz"};
    matrix.trials = 4;
    harness::ExperimentOptions options;
    options.workers = workers;
    const harness::ExperimentResult result =
        harness::Experiment(matrix, options).run();
    EXPECT_EQ(result.failed_trials, 0u);
    harness::ArtifactOptions artifact_options;
    artifact_options.include_timing = false;
    std::ostringstream os;
    harness::write_experiment_json(os, result, artifact_options);
    harness::write_trials_csv(os, result, artifact_options);
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "merged corpus was not written";
    std::ostringstream corpus_bytes;
    corpus_bytes << in.rdbuf();
    std::remove(path.c_str());
    std::remove((path + ".json").c_str());
    return std::pair<std::string, std::string>(os.str(), corpus_bytes.str());
  };

  const auto serial = run_with(1);
  EXPECT_NE(serial.first.find("corpus_out"), std::string::npos)
      << "artifact lost the shard provenance fields";
  EXPECT_FALSE(serial.second.empty());
  const auto two = run_with(2);
  EXPECT_EQ(serial.first, two.first) << "2-worker artifacts diverged";
  EXPECT_EQ(serial.second, two.second) << "2-worker merged corpus diverged";
  const auto eight = run_with(8);
  EXPECT_EQ(serial.first, eight.first) << "8-worker artifacts diverged";
  EXPECT_EQ(serial.second, eight.second) << "8-worker merged corpus diverged";
}

}  // namespace
}  // namespace mabfuzz
