// Trial-matrix experiment engine tests: matrix expansion (axes, labels,
// override application, validation), engine execution with per-cell
// aggregation, failed-trial surfacing, the pairwise speedup report, and
// the CSV/JSON artifact emitters.
//
// The flagship case mirrors the paper's Table I protocol: one declarative
// matrix (bandit + baseline × >= 5 seeded trials, stop at first detection)
// produces a median-based speedup report in a single Experiment call.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "fuzz/registry.hpp"
#include "harness/experiment.hpp"

namespace mabfuzz::harness {
namespace {

TrialMatrix small_matrix() {
  TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kRocket;
  matrix.base.bugs = soc::BugSet::none();
  matrix.base.max_tests = 40;
  matrix.base.snapshot_every = 20;
  matrix.base.rng_seed = 7;
  return matrix;
}

// --- expansion ------------------------------------------------------------------

TEST(TrialMatrixExpand, FuzzerMajorOrderAndRunRange) {
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"thehuzz", "ucb"};
  matrix.trials = 3;
  const std::vector<TrialSpec> specs = matrix.expand();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].fuzzer, "thehuzz");
  EXPECT_EQ(specs[0].run_index, 0u);
  EXPECT_EQ(specs[2].run_index, 2u);
  EXPECT_EQ(specs[3].fuzzer, "ucb");
  EXPECT_EQ(specs[3].run_index, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].index, i);
    EXPECT_EQ(specs[i].config.fuzzer, specs[i].fuzzer);
    EXPECT_EQ(specs[i].config.run_index, specs[i].run_index);
  }
}

TEST(TrialMatrixExpand, EmptyAxesFallBackToBase) {
  TrialMatrix matrix = small_matrix();
  matrix.base.fuzzer = "exp3";
  const std::vector<TrialSpec> specs = matrix.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].fuzzer, "exp3");
  EXPECT_EQ(specs[0].variant, "");
}

TEST(TrialMatrixExpand, VariantOverridesApplyPerCell) {
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"ucb"};
  matrix.variants = {{"narrow", {"arms=4"}}, {"wide", {"arms=20"}}};
  matrix.trials = 2;
  const std::vector<TrialSpec> specs = matrix.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].variant, "narrow");
  EXPECT_EQ(specs[0].config.policy.bandit.num_arms, 4u);
  EXPECT_EQ(specs[2].variant, "wide");
  EXPECT_EQ(specs[2].config.policy.bandit.num_arms, 20u);
  // The base is never mutated by expansion.
  EXPECT_EQ(matrix.base.policy.bandit.num_arms, 10u);
}

TEST(TrialMatrixExpand, MalformedOverrideThrowsBeforeAnyTrialRuns) {
  TrialMatrix matrix = small_matrix();
  matrix.variants = {{"bad", {"no-such-knob=1"}}};
  EXPECT_THROW((void)matrix.expand(), std::invalid_argument);
  EXPECT_THROW((void)Experiment(matrix), std::invalid_argument);
}

// --- execution + aggregation ----------------------------------------------------

TEST(ExperimentRun, AggregatesPerCell) {
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"thehuzz", "ucb"};
  matrix.trials = 3;
  const ExperimentResult result = Experiment(matrix).run();

  ASSERT_EQ(result.trials.size(), 6u);
  EXPECT_EQ(result.failed_trials, 0u);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const CellStats& cell : result.cells) {
    EXPECT_EQ(cell.trials, 3u);
    EXPECT_EQ(cell.failed_trials, 0u);
    EXPECT_EQ(cell.tests.count, 3u);
    EXPECT_DOUBLE_EQ(cell.tests.mean, 40.0);  // coverage mode runs to the cap
    EXPECT_GT(cell.covered.mean, 0.0);
    EXPECT_GE(cell.covered.max, cell.covered.median);
    EXPECT_GE(cell.covered.median, cell.covered.min);
    // Mean curve spans the full run: grid {20, 40}.
    ASSERT_EQ(cell.mean_curve.grid.size(), 2u);
    EXPECT_EQ(cell.mean_curve.grid.back(), 40u);
    EXPECT_DOUBLE_EQ(cell.mean_curve.final_covered, cell.covered.mean);
  }
  EXPECT_NE(result.find_cell("thehuzz"), nullptr);
  EXPECT_NE(result.find_cell("ucb"), nullptr);
  EXPECT_EQ(result.find_cell("nope"), nullptr);

  // Distinct run indices decorrelate trials within a cell.
  const CellStats& ucb = *result.find_cell("ucb");
  EXPECT_GT(ucb.covered.stddev, 0.0);
}

TEST(ExperimentRun, FailedTrialsAreCountedAndSurfacedNotDropped) {
  // Two of the three fuzzer names don't resolve: four failing trials must
  // all be reported (the old parallel_runs dropped all but the first
  // exception) while the valid cell still aggregates.
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"thehuzz", "no-such-policy", "also-missing"};
  matrix.trials = 2;
  const ExperimentResult result = Experiment(matrix).run();

  ASSERT_EQ(result.trials.size(), 6u);
  EXPECT_EQ(result.failed_trials, 4u);
  for (const TrialResult& trial : result.trials) {
    if (trial.fuzzer == "thehuzz") {
      EXPECT_FALSE(trial.failed);
    } else {
      EXPECT_TRUE(trial.failed);
      EXPECT_NE(trial.error.find(trial.fuzzer), std::string::npos)
          << "error should name the unknown policy";
    }
  }
  const CellStats* missing = result.find_cell("no-such-policy");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->trials, 2u);
  EXPECT_EQ(missing->failed_trials, 2u);
  EXPECT_EQ(missing->tests.count, 0u);
  const CellStats* ok = result.find_cell("thehuzz");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->failed_trials, 0u);
  EXPECT_EQ(ok->tests.count, 2u);
}

TEST(ExperimentRun, NonStandardThrowFailsOnlyThatFuzzersTrials) {
  // A throw that is not a std::exception fails its own trials, each as
  // "unknown exception", and the cell beside it still aggregates.
  fuzz::FuzzerRegistry::instance().add(
      "throws-int",
      [](fuzz::Backend&, const fuzz::PolicyConfig&) -> std::unique_ptr<fuzz::Fuzzer> {
        throw 42;
      });
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"thehuzz", "throws-int"};
  matrix.trials = 2;
  const ExperimentResult result = Experiment(matrix).run();
  fuzz::FuzzerRegistry::instance().remove("throws-int");

  ASSERT_EQ(result.trials.size(), 4u);
  EXPECT_EQ(result.failed_trials, 2u);
  for (const TrialResult& trial : result.trials) {
    EXPECT_EQ(trial.failed, trial.fuzzer == "throws-int") << trial.index;
    EXPECT_EQ(trial.error, trial.failed ? "unknown exception" : "");
  }
  const CellStats* ok = result.find_cell("thehuzz");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->failed_trials, 0u);
  EXPECT_EQ(ok->tests.count, 2u);
  EXPECT_EQ(result.find_cell("throws-int")->failed_trials, 2u);
}

TEST(ExperimentRun, ZeroTrialsReturnsAnEmptyResult) {
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"thehuzz", "ucb"};
  matrix.trials = 0;
  const ExperimentResult result = Experiment(matrix).run();
  EXPECT_TRUE(result.trials.empty());
  EXPECT_TRUE(result.cells.empty());
  EXPECT_EQ(result.failed_trials, 0u);
}

// --- Table I-style detection experiment (acceptance case) -----------------------

TEST(ExperimentRun, SingleCallReproducesTable1StyleSpeedupReport) {
  TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kCva6;
  matrix.base.bugs = soc::BugSet::single(soc::BugId::kV5SilentLoadFault);
  matrix.base.max_tests = 400;
  matrix.base.rng_seed = 3;
  matrix.fuzzers = {"thehuzz", "exp3"};
  matrix.trials = 5;  // median over >= 5 seeded trials

  ExperimentOptions options;
  options.target_bug = soc::BugId::kV5SilentLoadFault;
  const ExperimentResult result = Experiment(matrix, options).run();

  ASSERT_EQ(result.trials.size(), 10u);
  EXPECT_EQ(result.failed_trials, 0u);
  const CellStats& base = *result.find_cell("thehuzz");
  const CellStats& exp3 = *result.find_cell("exp3");
  // V5 is the easy bug: every trial of both fuzzers detects it.
  EXPECT_EQ(base.detected_trials, 5u);
  EXPECT_EQ(exp3.detected_trials, 5u);
  for (const TrialResult& trial : result.trials) {
    EXPECT_EQ(trial.stop, StopReason::kBugDetected);
    EXPECT_TRUE(trial.target_detected);
    EXPECT_EQ(trial.detection_tests, trial.tests_executed)
        << "detection stop => tests-to-detection == tests executed";
  }
  EXPECT_DOUBLE_EQ(base.detection.median, base.tests.median);

  const SpeedupReport report = speedup_report(result, "thehuzz");
  EXPECT_EQ(report.baseline, "thehuzz");
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].fuzzer, "exp3");
  EXPECT_DOUBLE_EQ(
      report.rows[0].median_speedup,
      common::speedup_ratio(base.tests.median, exp3.tests.median));
  EXPECT_GT(report.rows[0].median_speedup, 0.0);
  EXPECT_GT(report.rows[0].mean_speedup, 0.0);

  EXPECT_THROW((void)speedup_report(result, "not-in-matrix"),
               std::invalid_argument);
}

// --- artifacts ------------------------------------------------------------------

TEST(Artifacts, CsvHasOneRowPerTrial) {
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"thehuzz", "ucb"};
  matrix.trials = 3;
  const ExperimentResult result = Experiment(matrix).run();

  std::ostringstream os;
  write_trials_csv(os, result);
  const std::string csv = os.str();
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 1 + 6);  // header + one row per trial
  EXPECT_NE(csv.find("trial,fuzzer,variant,run,status"), std::string::npos);
  EXPECT_NE(csv.find("elapsed_seconds"), std::string::npos);

  // Timing is dropped from byte-identity-comparable artifacts.
  ArtifactOptions no_timing;
  no_timing.include_timing = false;
  std::ostringstream os2;
  write_trials_csv(os2, result, no_timing);
  EXPECT_EQ(os2.str().find("elapsed_seconds"), std::string::npos);
}

TEST(Artifacts, JsonCarriesSchemaTrialsAndCells) {
  TrialMatrix matrix = small_matrix();
  matrix.fuzzers = {"ucb"};
  matrix.trials = 2;
  const ExperimentResult result = Experiment(matrix).run();

  std::ostringstream os;
  write_experiment_json(os, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"mabfuzz-experiment-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"trial_count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"failed_trials\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"median\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_curve\""), std::string::npos);
  // Balanced structure (a cheap well-formedness proxy without a parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace mabfuzz::harness
