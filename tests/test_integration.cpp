// End-to-end integration tests: full fuzzing campaigns on every core with
// every registered scheduling policy, determinism of whole campaigns, and
// the qualitative paper properties at small scale (MABFuzz explores at
// least as well as the static baseline; resets concentrate on depleted
// arms).

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>

#include "harness/campaign.hpp"
#include "harness/curves.hpp"
#include "harness/experiment.hpp"

namespace mabfuzz::harness {
namespace {

struct CampaignCase {
  soc::CoreKind core;
  std::string_view policy;
};

std::string campaign_name(const ::testing::TestParamInfo<CampaignCase>& info) {
  std::string out(soc::core_name(info.param.core));
  out += "_";
  for (const char c : info.param.policy) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    }
  }
  return out;
}

class FullCampaign : public ::testing::TestWithParam<CampaignCase> {};

TEST_P(FullCampaign, RunsCleanlyAndCoversDesign) {
  CampaignConfig config;
  config.core = GetParam().core;
  config.fuzzer = std::string(GetParam().policy);
  config.bugs = soc::BugSet::none();
  config.max_tests = 200;
  Campaign campaign(config);
  const RunResult result = campaign.run();
  EXPECT_EQ(result.reason, StopReason::kMaxTests);
  EXPECT_EQ(result.tests_executed, 200u);
  EXPECT_EQ(campaign.mismatches(), 0u)
      << "clean core mismatched under " << GetParam().policy;
  const auto& acc = campaign.fuzzer().accumulated();
  EXPECT_GT(acc.fraction(), 0.05);  // a couple hundred tests cover real ground
  EXPECT_LT(acc.fraction(), 1.00);
}

std::vector<CampaignCase> all_campaigns() {
  std::vector<CampaignCase> v;
  for (const soc::CoreKind core : soc::kAllCores) {
    for (const std::string_view policy : kAllPolicies) {
      v.push_back({core, policy});
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, FullCampaign,
                         ::testing::ValuesIn(all_campaigns()), campaign_name);

// --- determinism ------------------------------------------------------------------

class CampaignDeterminism : public ::testing::TestWithParam<std::string_view> {};

TEST_P(CampaignDeterminism, IdenticalConfigIdenticalTrajectory) {
  auto trajectory = [&] {
    CampaignConfig config;
    config.core = soc::CoreKind::kCva6;
    config.fuzzer = std::string(GetParam());
    config.max_tests = 120;
    config.rng_seed = 42;
    Campaign campaign(config);
    std::vector<std::size_t> new_points;
    for (std::uint64_t t = 0; t < config.max_tests; ++t) {
      new_points.push_back(campaign.step().new_global_points);
    }
    new_points.push_back(campaign.covered());
    return new_points;
  };
  EXPECT_EQ(trajectory(), trajectory());
}

TEST_P(CampaignDeterminism, DifferentRunsDiffer) {
  auto covered_for_run = [&](std::uint64_t run) {
    CampaignConfig config;
    config.core = soc::CoreKind::kCva6;
    config.fuzzer = std::string(GetParam());
    config.max_tests = 80;
    config.run_index = run;
    Campaign campaign(config);
    campaign.run();
    return campaign.covered();
  };
  // Distinct repetition indices must yield distinct (decorrelated) runs.
  EXPECT_NE(covered_for_run(0), covered_for_run(1));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CampaignDeterminism,
                         ::testing::ValuesIn(kAllPolicies),
                         [](const ::testing::TestParamInfo<std::string_view>& param_info) {
                           std::string out;
                           for (const char c : param_info.param) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               out += c;
                             }
                           }
                           return out;
                         });

// --- qualitative paper properties at small scale -------------------------------------

TEST(PaperProperties, MabCoverageIsCompetitiveWithBaseline) {
  // At small scale MABFuzz must at least keep pace with TheHuzz on the
  // hard core (the paper's CVA6 gap grows with scale).
  TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kCva6;
  matrix.base.max_tests = 600;
  matrix.base.snapshot_every = 100;
  matrix.fuzzers = {"thehuzz", "ucb"};
  matrix.trials = 2;
  const ExperimentResult result = Experiment(std::move(matrix)).run();
  ASSERT_EQ(result.failed_trials, 0u);
  const CoverageCurve& huzz = result.find_cell("thehuzz")->mean_curve;
  const CoverageCurve& ucb = result.find_cell("ucb")->mean_curve;

  EXPECT_GT(ucb.final_covered, 0.95 * huzz.final_covered);
}

TEST(PaperProperties, EasyBugFoundQuicklyByEveryFuzzer) {
  TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kCva6;
  matrix.base.bugs = soc::BugSet::single(soc::BugId::kV5SilentLoadFault);
  matrix.base.max_tests = 400;
  matrix.fuzzers.assign(kAllPolicies.begin(), kAllPolicies.end());
  ExperimentOptions options;
  options.target_bug = soc::BugId::kV5SilentLoadFault;
  const ExperimentResult result = Experiment(std::move(matrix), options).run();
  ASSERT_EQ(result.trials.size(), kAllPolicies.size());
  for (const TrialResult& trial : result.trials) {
    ASSERT_FALSE(trial.failed) << trial.fuzzer << ": " << trial.error;
    EXPECT_TRUE(trial.target_detected) << trial.fuzzer;
    EXPECT_LT(trial.detection_tests, 200u) << trial.fuzzer;
  }
  for (const CellStats& cell : result.cells) {
    EXPECT_EQ(cell.detected_trials, 1u) << cell.fuzzer;
  }
}

TEST(PaperProperties, CleanBoomNeverMismatches) {
  // BOOM carries no injected bugs (Table I): an entire campaign with the
  // default bug set must stay mismatch-free.
  CampaignConfig config;
  config.core = soc::CoreKind::kBoom;
  config.bugs = soc::default_bugs(soc::CoreKind::kBoom);
  config.fuzzer = "exp3";
  config.max_tests = 150;
  Campaign campaign(config);
  campaign.run();
  EXPECT_EQ(campaign.mismatches(), 0u);
}

TEST(PaperProperties, FiringsReportedOnlyWhenBugEnabled) {
  CampaignConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::none();
  config.fuzzer = "thehuzz";
  config.max_tests = 100;
  Campaign campaign(config);
  for (std::uint64_t t = 0; t < config.max_tests; ++t) {
    EXPECT_TRUE(campaign.step().firings.empty());
  }
}

}  // namespace
}  // namespace mabfuzz::harness
