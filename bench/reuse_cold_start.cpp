// Corpus-reuse vs cold-start detection bench: how much faster does a
// warmed-up campaign find a bug than campaigns starting from nothing?
//
// Protocol (ReFuzz-style cross-campaign reuse):
//   1. Warm-up: one clean-core reuse campaign builds a mabfuzz-corpus-v2
//      store (no bugs enabled — the corpus captures *coverage* knowledge,
//      not bug knowledge; carrying detections over would be cheating).
//   2. Detection matrix on the bugged core, Table I protocol (each trial
//      stops at first detection of the target bug or the test cap):
//        random-cold   fresh seeds only (the control)
//        thehuzz-cold  static FIFO baseline from scratch
//        reuse-cold    bandit-over-corpus from an empty store
//        reuse-warm    the same fuzzer seeded with the warm-up corpus
//   3. Per-cell detection stats plus warm-vs-cold speedups, and the
//      machine-readable BENCH artifact (docs/ARTIFACTS.md).
//
// Usage:
//   reuse_cold_start [--tests N] [--warmup N] [--runs R] [--seed S]
//                    [--bug V6] [--workers W] [--json PATH]
// Defaults: --tests 2500 --warmup 1500 --runs 5 --bug V6
//           --json BENCH_reuse_cold_start.json
// (V6 — unimplemented-CSR X-values — is coverage-gated deep enough for
// corpus knowledge to be able to transfer; V5 is found on the first seeds
// by any policy and V2 is an encoding-space bug where replayed legal
// programs cannot help. Detection latencies are heavy-tailed — judge the
// comparison from the per-cell spreads at several seeds, not one median.)

#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common/bytes.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fuzz/corpus.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace mabfuzz;

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::uint64_t max_tests = args.get_uint("tests", 2500);
  const std::uint64_t warmup_tests = args.get_uint("warmup", 1500);
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_uint("runs", 5));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto workers = static_cast<unsigned>(args.get_uint("workers", 0));
  const std::string bug_name = args.get_string("bug", "V6");
  const std::string json_path =
      args.get_string("json", "BENCH_reuse_cold_start.json");
  const std::string corpus_path = args.get_string("corpus", "BENCH_reuse_corpus.bin");

  std::optional<soc::BugId> target;
  for (const soc::BugInfo& info : soc::all_bugs()) {
    if (info.name == bug_name) {
      target = info.id;
    }
  }
  if (!target) {
    std::cerr << "error: unknown --bug '" << bug_name << "' (expected V1..V7)\n";
    return 1;
  }

  std::cout << "=== corpus reuse vs cold start (" << bug_name << " on CVA6) ===\n";

  // --- 1. warm-up: build the corpus on the clean core -------------------------
  {
    harness::CampaignConfig warmup;
    warmup.fuzzer = "reuse";
    warmup.core = soc::CoreKind::kCva6;
    warmup.bugs = soc::BugSet::none();
    warmup.max_tests = warmup_tests;
    warmup.rng_seed = seed + 1000;  // decorrelated from the measured runs
    warmup.corpus_out = corpus_path;
    harness::Campaign campaign(warmup);
    campaign.run();
    if (!campaign.save_corpus()) {
      std::cerr << "error: warm-up campaign produced no corpus\n";
      return 1;
    }
    std::cout << "warm-up: " << warmup_tests << " tests -> corpus "
              << corpus_path << " (" << campaign.corpus()->size()
              << " entries, " << campaign.corpus()->covered()
              << " accumulated points)\n\n";
  }

  // --- 2. detection matrix (Table I protocol) ---------------------------------
  harness::TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kCva6;
  matrix.base.bugs = soc::BugSet::single(*target);
  matrix.base.max_tests = max_tests;
  matrix.base.rng_seed = seed;
  // The variant axis carries the whole comparison (overrides may retarget
  // the fuzzer), so one experiment yields directly comparable cells.
  matrix.variants = {{"random-cold", {"fuzzer=random"}},
                     {"thehuzz-cold", {"fuzzer=thehuzz"}},
                     {"reuse-cold", {"fuzzer=reuse"}},
                     {"reuse-warm", {"fuzzer=reuse", "corpus-in=" + corpus_path}}};
  matrix.trials = runs;

  harness::ExperimentOptions options;
  options.workers = workers;
  options.target_bug = target;

  std::cout << "running " << matrix.variants.size() << " x " << runs
            << " detection trials (cap " << max_tests << " tests)...\n\n";
  const harness::ExperimentResult result =
      harness::Experiment(matrix, options).run();
  if (harness::report_failures(std::cerr, result) != 0) {
    return 1;  // never print speedups computed from partial data
  }

  common::Table table({"variant", "detected", "median tests", "mean tests",
                       "p25", "p75"});
  for (const harness::CellStats& cell : result.cells) {
    table.add_row({cell.variant,
                   std::to_string(cell.detected_trials) + "/" +
                       std::to_string(cell.trials),
                   common::format_double(cell.detection.median, 1),
                   common::format_double(cell.detection.mean, 1),
                   common::format_double(cell.detection.p25, 1),
                   common::format_double(cell.detection.p75, 1)});
  }
  table.render(std::cout);

  const harness::CellStats* warm = result.find_cell("reuse", "reuse-warm");
  std::cout << "\nwarm-start speedup (cold median tests-to-detection / warm):\n";
  for (const char* cold : {"random-cold", "thehuzz-cold", "reuse-cold"}) {
    const harness::CellStats* cell = nullptr;
    for (const harness::CellStats& candidate : result.cells) {
      if (candidate.variant == cold) {
        cell = &candidate;
      }
    }
    if (cell == nullptr || warm == nullptr) {
      continue;
    }
    std::cout << "  vs " << cold << ": "
              << common::format_speedup(common::speedup_ratio(
                     cell->detection.median, warm->detection.median))
              << " (median " << common::format_double(cell->detection.median, 1)
              << " -> " << common::format_double(warm->detection.median, 1)
              << ")\n";
  }

  if (!json_path.empty()) {
    std::ostringstream json;
    harness::write_experiment_json(json, result);
    try {
      common::write_file_atomic(json_path, json.str());
    } catch (const std::exception&) {
      std::cerr << "error: failed writing '" << json_path << "'\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
