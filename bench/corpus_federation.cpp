// Corpus federation bench: does a *merged, sharded* corpus grown on one
// core transfer across cores? The cross-core companion to
// reuse_cold_start — that bench warms the same core it measures; this one
// grows knowledge on Rocket through the full federation pipeline
// (sharded matrix writes -> post-barrier Corpus::merge), replays it on a
// clean BOOM to re-gate it against BOOM's coverage space, and then asks
// whether the transferred store still buys detection speedup.
//
// Protocol:
//   1. Shard + merge: an N-trial reuse matrix on the clean Rocket core
//      with corpus_out set, so every trial writes its own
//      `<path>.shard-<index>` store and the experiment engine folds them
//      (spec-index order) into one merged mabfuzz-corpus-v2 store.
//   2. Cross-core transfer: every merged entry's program is replayed on a
//      clean BOOM backend and offered — with its *BOOM* coverage map —
//      into a fresh BOOM-bound corpus. The admission gate re-filters the
//      knowledge for the new core; the admit rate is itself a result.
//      A distill()ed copy is also saved (greedy set-cover, same
//      accumulated map) to measure whether the minimal subset suffices.
//   3. Detection matrix on the bugged BOOM, Table I protocol (each trial
//      stops at first detection of the target bug or the test cap):
//        thehuzz-cold         static FIFO baseline from scratch
//        reuse-cold           bandit-over-corpus from an empty store
//        reuse-warm           seeded with the transferred corpus
//        reuse-warm-distilled seeded with the distilled transfer corpus
//   4. Per-cell detection stats, warm-vs-cold speedups, and the
//      machine-readable BENCH artifact (docs/ARTIFACTS.md).
//
// Usage:
//   corpus_federation [--shards N] [--warmup N] [--tests N] [--runs R]
//                     [--seed S] [--bug V6] [--workers W] [--json PATH]
// Defaults: --shards 4 --warmup 800 --tests 3000 --runs 5 --bug V6
//           --json BENCH_corpus_federation.json
// (V6 — unimplemented-CSR X-values — exists on both cores and is
// coverage-gated deep enough on BOOM for transferred knowledge to
// matter; V5 falls to the first seeds and V7 never fires on BOOM.
// Detection latencies are heavy-tailed — judge from the per-cell spreads
// at several seeds, not one median.)

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/bytes.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/corpus.hpp"
#include "harness/experiment.hpp"
#include "soc/bugs.hpp"
#include "soc/cores.hpp"

namespace {

using namespace mabfuzz;

/// Snapshot of one store for the artifact.
struct StoreStats {
  std::uint64_t entries = 0;
  std::uint64_t covered = 0;
  std::uint64_t universe = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t evicted = 0;
};

StoreStats snapshot(const fuzz::Corpus& corpus) {
  StoreStats s;
  s.entries = corpus.size();
  s.covered = corpus.covered();
  s.universe = corpus.universe();
  s.admitted = corpus.admitted();
  s.rejected = corpus.rejected();
  s.evicted = corpus.evicted();
  return s;
}

void write_store(common::JsonWriter& json, const StoreStats& s) {
  json.begin_object();
  json.key("entries").value(s.entries);
  json.key("covered").value(s.covered);
  json.key("universe").value(s.universe);
  json.key("admitted").value(s.admitted);
  json.key("rejected").value(s.rejected);
  json.key("evicted").value(s.evicted);
  json.end_object();
}

const harness::CellStats* cell_by_variant(const harness::ExperimentResult& result,
                                          std::string_view variant) {
  for (const harness::CellStats& cell : result.cells) {
    if (cell.variant == variant) {
      return &cell;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::uint64_t shards = std::max<std::uint64_t>(2, args.get_uint("shards", 4));
  const std::uint64_t warmup_tests = args.get_uint("warmup", 800);
  const std::uint64_t max_tests = args.get_uint("tests", 3000);
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_uint("runs", 5));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto workers = static_cast<unsigned>(args.get_uint("workers", 0));
  const std::string bug_name = args.get_string("bug", "V6");
  const std::string json_path =
      args.get_string("json", "BENCH_corpus_federation.json");
  const std::string rocket_path =
      args.get_string("corpus", "BENCH_federation_rocket.bin");
  const std::string boom_path = rocket_path + ".boom";
  const std::string distilled_path = rocket_path + ".boom-distilled";

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

  std::cout << "=== corpus federation: rocket shards -> merge -> boom ("
            << bug_name << ") ===\n";

  // --- 1. shard + merge on the clean source core ------------------------------
  {
    harness::TrialMatrix grow;
    grow.base.fuzzer = "reuse";
    grow.base.core = soc::CoreKind::kRocket;
    grow.base.bugs = soc::BugSet::none();
    grow.base.max_tests = warmup_tests;
    grow.base.rng_seed = seed + 1000;  // decorrelated from the measured runs
    grow.base.corpus_out = rocket_path;
    grow.trials = shards;
    harness::ExperimentOptions grow_options;
    grow_options.workers = workers;
    const harness::ExperimentResult grown =
        harness::Experiment(grow, grow_options).run();
    if (harness::report_failures(std::cerr, grown) != 0) {
      return 1;  // a lost shard would silently shrink the merged store
    }
  }
  const fuzz::Corpus merged = fuzz::Corpus::load(rocket_path);
  const StoreStats merged_stats = snapshot(merged);
  std::cout << "merged " << shards << " shards x " << warmup_tests
            << " tests -> " << rocket_path << " (" << merged_stats.entries
            << " entries, " << merged_stats.covered << "/"
            << merged_stats.universe << " points)\n";

  // --- 2. cross-core transfer: replay + re-gate on BOOM -----------------------
  fuzz::BackendConfig boom_config;
  boom_config.core = soc::CoreKind::kBoom;
  boom_config.bugs = soc::BugSet::none();
  boom_config.rng_seed = seed;
  fuzz::Backend boom_backend(boom_config);
  fuzz::Corpus transferred(std::string(soc::core_name(soc::CoreKind::kBoom)),
                           boom_backend.coverage_universe(),
                           merged.max_entries());
  std::uint64_t transfer_admits = 0;
  for (const fuzz::CorpusEntry& entry : merged.entries()) {
    const coverage::Map& replayed =
        boom_backend.run_test(entry.test).dut.test_coverage;
    transfer_admits += transferred.offer(entry.test, replayed) ? 1 : 0;
  }
  transferred.save(boom_path);
  fuzz::Corpus distilled = transferred;
  const std::uint64_t distill_removed = distilled.distill();
  distilled.save(distilled_path);
  const StoreStats transfer_stats = snapshot(transferred);
  std::cout << "transfer: " << merged_stats.entries << " replayed -> "
            << transfer_admits << " admitted on boom ("
            << transfer_stats.covered << "/" << transfer_stats.universe
            << " points); distill removed " << distill_removed << " -> "
            << distilled.size() << " entries\n\n";

  // --- 3. detection matrix on the bugged target core --------------------------
  harness::TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kBoom;
  matrix.base.bugs = soc::BugSet::single(*target);
  matrix.base.max_tests = max_tests;
  matrix.base.rng_seed = seed;
  matrix.variants = {
      {"thehuzz-cold", {"fuzzer=thehuzz"}},
      {"reuse-cold", {"fuzzer=reuse"}},
      {"reuse-warm", {"fuzzer=reuse", "corpus-in=" + boom_path}},
      {"reuse-warm-distilled", {"fuzzer=reuse", "corpus-in=" + distilled_path}}};
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

  const harness::CellStats* warm = cell_by_variant(result, "reuse-warm");
  std::cout << "\ncross-core warm-start speedup (cold median / warm median):\n";
  for (const char* cold : {"thehuzz-cold", "reuse-cold"}) {
    const harness::CellStats* cell = cell_by_variant(result, cold);
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
    std::ostringstream out;
    common::JsonWriter json(out);
    json.begin_object();
    json.key("schema").value("mabfuzz-bench-corpus-federation-v1");
    json.key("config").begin_object();
    json.key("source_core").value("rocket");
    json.key("target_core").value("boom");
    json.key("bug").value(bug_name);
    json.key("shards").value(shards);
    json.key("warmup_tests").value(warmup_tests);
    json.key("detection_cap").value(max_tests);
    json.key("runs").value(runs);
    json.key("seed").value(seed);
    json.end_object();
    json.key("federation").begin_object();
    json.key("rocket_merged");
    write_store(json, merged_stats);
    json.key("boom_transfer");
    write_store(json, transfer_stats);
    json.key("transfer_admitted").value(transfer_admits);
    json.key("distill_removed").value(distill_removed);
    json.key("distilled_entries").value(std::uint64_t{distilled.size()});
    json.end_object();
    json.key("detection").begin_object();
    for (const harness::CellStats& cell : result.cells) {
      json.key(cell.variant).begin_object();
      json.key("fuzzer").value(cell.fuzzer);
      json.key("trials").value(cell.trials);
      json.key("detected").value(cell.detected_trials);
      json.key("detection_median").value(cell.detection.median);
      json.key("detection_mean").value(cell.detection.mean);
      json.key("detection_p25").value(cell.detection.p25);
      json.key("detection_p75").value(cell.detection.p75);
      json.end_object();
    }
    json.end_object();
    json.key("speedups").begin_object();
    for (const char* cold : {"thehuzz-cold", "reuse-cold"}) {
      const harness::CellStats* cell = cell_by_variant(result, cold);
      if (cell == nullptr || warm == nullptr) {
        continue;
      }
      json.key(std::string("reuse-warm_vs_") + cold)
          .value(common::speedup_ratio(cell->detection.median,
                                       warm->detection.median));
    }
    json.end_object();
    json.end_object();
    out << "\n";
    try {
      common::write_file_atomic(json_path, out.str());
    } catch (const std::exception&) {
      std::cerr << "error: failed writing '" << json_path << "'\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
