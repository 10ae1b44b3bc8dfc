// Reproduces paper Table I: vulnerability detection speedup of
// MABFuzz:{eps-greedy, UCB, EXP3, Thompson} over TheHuzz for the seven
// injected vulnerabilities (V1-V6 on CVA6, V7 on Rocket Core).
//
// Method: one bug enabled at a time (unambiguous attribution). Each bug is
// one declarative trial matrix — (baseline + every MABFuzz variant) × runs
// — executed by the experiment engine under its Table I protocol (stop at
// first detection or the test cap); speedups come straight from the
// engine's pairwise report (mean tests(TheHuzz) / mean tests(variant)).
//
// Usage:
//   table1_vuln_speedup [--tests N] [--runs R] [--seed S] [--workers W]
//                       [--csv] [--json PATH]
// --json writes one artifact per bug as PATH.<bug>.json (e.g. PATH.V1.json).
// Paper scale: --tests 50000 --runs 3. Defaults are container-sized.

#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>

#include "common/bytes.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace {

using namespace mabfuzz;
using harness::CampaignConfig;

soc::CoreKind core_of(soc::BugId bug) {
  return soc::bug_info(bug).core == "rocket" ? soc::CoreKind::kRocket
                                             : soc::CoreKind::kCva6;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::uint64_t max_tests = args.get_uint("tests", 6000);
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_uint("runs", 3));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto workers = static_cast<unsigned>(args.get_uint("workers", 0));
  const bool csv = args.get_bool("csv", false);
  const std::string json_path = args.get_string("json", "");

  std::cout << "=== Table I: vulnerability detection speedup vs TheHuzz ===\n"
            << "(one bug enabled at a time; " << runs << " runs; cap "
            << max_tests << " tests; '(>)' marks a right-censored run)\n\n";

  std::vector<harness::Table1Row> rows;
  common::Table csv_table({"bug", "fuzzer", "mean_tests", "detected_runs",
                           "runs", "speedup"});

  for (const soc::BugInfo& info : soc::all_bugs()) {
    harness::TrialMatrix matrix;
    matrix.base.core = core_of(info.id);
    matrix.base.bugs = soc::BugSet::single(info.id);
    matrix.base.max_tests = max_tests;
    matrix.base.rng_seed = seed;
    matrix.fuzzers = {"thehuzz"};
    matrix.fuzzers.insert(matrix.fuzzers.end(), harness::kMabPolicies.begin(),
                          harness::kMabPolicies.end());
    matrix.trials = runs;

    harness::ExperimentOptions options;
    options.workers = workers;
    options.target_bug = info.id;
    const harness::ExperimentResult result =
        harness::Experiment(matrix, options).run();
    if (harness::report_failures(std::cerr, result) != 0) {
      return 1;  // never print Table I rows computed from partial data
    }
    const harness::SpeedupReport report =
        harness::speedup_report(result, "thehuzz");

    harness::Table1Row row;
    row.bug = info.id;
    const harness::CellStats& base = *result.find_cell("thehuzz");
    row.thehuzz_tests = base.detection.mean;
    csv_table.add_row({std::string(info.name), "thehuzz",
                       common::format_double(base.detection.mean, 1),
                       std::to_string(base.detected_trials),
                       std::to_string(runs), "1"});
    for (const harness::SpeedupReport::Row& speedup : report.rows) {
      const harness::CellStats& cell = *result.find_cell(speedup.fuzzer);
      row.speedup[speedup.fuzzer] = speedup.mean_speedup;
      row.detected[speedup.fuzzer] = cell.detected_trials == runs;
      csv_table.add_row({std::string(info.name), speedup.fuzzer,
                         common::format_double(cell.detection.mean, 1),
                         std::to_string(cell.detected_trials),
                         std::to_string(runs),
                         common::format_double(speedup.mean_speedup, 2)});
    }
    rows.push_back(row);
    std::cout << "  [" << info.name << "] " << info.description << " ... done\n";

    if (!json_path.empty()) {
      const std::string path = json_path + "." + std::string(info.name) + ".json";
      std::ostringstream json;
      harness::write_experiment_json(json, result);
      try {
        common::write_file_atomic(path, json.str());
      } catch (const std::exception&) {
        std::cerr << "error: failed writing '" << path << "'\n";
        return 1;
      }
    }
  }

  std::cout << "\n";
  harness::render_table1(std::cout, rows,
                         {harness::kMabPolicies.begin(), harness::kMabPolicies.end()});

  // Aggregate comparison quoted in Sec. IV-C (EXP3 means across bugs).
  std::vector<double> exp3_speedups;
  for (const auto& row : rows) {
    const auto it = row.speedup.find("exp3");
    if (it != row.speedup.end()) {
      exp3_speedups.push_back(it->second);
    }
  }
  const common::Summary exp3 = common::summarize(exp3_speedups);
  std::cout << "\nMABFuzz:EXP3 mean vulnerability-detection speedup across "
            << exp3_speedups.size() << " bugs: " << common::format_speedup(exp3.mean)
            << " (paper reports 14.59x at 50K-test scale)\n";

  if (csv) {
    std::cout << "\n--- CSV ---\n";
    csv_table.render_csv(std::cout);
  }
  return 0;
}
