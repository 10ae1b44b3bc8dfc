#pragma once
// The campaign API: the one construction-and-run path every bench, example
// and test drives experiments through.
//
//  - CampaignConfig: one declarative description of an experiment — which
//    policy (by registry name), which core, which bugs, how many tests —
//    with every policy knob in the nested fuzz::PolicyConfig. Parseable
//    from "key=value" pairs (and from common::CliArgs), so every binary
//    shares one flag vocabulary.
//  - Campaign: the run driver. Batched stepping via run_until() with
//    composable StopConditions (max tests, wall-clock budget, bug
//    detection, all-injected-bugs-detected), per-batch coverage snapshots
//    feeding harness/curves, and an observer interface replacing the
//    hand-rolled step loops that used to poke fuzzer internals.
//
// Observer callback order within one step is part of the contract:
//   on_arm_selected  (iff the policy selected an arm)
//   on_new_coverage  (iff the test covered globally-new points)
//   on_mismatch      (iff differential testing diverged)
//   on_step          (always, last)
// and on_batch fires after every snapshot_every steps plus once at stop.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/registry.hpp"
#include "soc/bugs.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::harness {

/// Policy names for the standard sweeps. kAllPolicies mirrors the paper's
/// Fig. 3 panel set plus the Thompson extension; kMabPolicies is the
/// MABFuzz-variant subset compared against the TheHuzz baseline.
inline constexpr std::array<std::string_view, 5> kAllPolicies = {
    "thehuzz", "epsilon-greedy", "ucb", "exp3", "thompson"};
inline constexpr std::array<std::string_view, 4> kMabPolicies = {
    "epsilon-greedy", "ucb", "exp3", "thompson"};

struct CampaignConfig {
  std::string fuzzer = "thehuzz";  // fuzzer or bandit registry name
  soc::CoreKind core = soc::CoreKind::kRocket;
  soc::BugSet bugs;  // default: none (coverage experiments)
  std::uint64_t max_tests = 10'000;
  std::uint64_t rng_seed = 1;
  std::uint64_t run_index = 0;
  /// Coverage-snapshot cadence for run_until(); 0 = auto (max_tests / 100,
  /// at least 1).
  std::uint64_t snapshot_every = 0;
  /// Cross-campaign corpus persistence (fuzz/corpus.hpp). `corpus_in`
  /// loads a mabfuzz-corpus-v2 store before the run (validated against
  /// this campaign's core and coverage universe); `corpus_out` is where
  /// save_corpus() writes the store afterwards. Either key makes the
  /// campaign materialise one shared store in `policy.corpus`, which every
  /// corpus-feeding policy extends as it runs.
  std::string corpus_in;
  std::string corpus_out;
  /// Everything the selected policy consumes (bandit parameters included —
  /// the single home of num_arms / epsilon / eta).
  fuzz::PolicyConfig policy;

  /// Applies one "key=value" setting ("fuzzer=ucb", "epsilon=0.2",
  /// "bugs=V1,V5"). Throws std::invalid_argument on an unknown key
  /// (listing the known ones) or an unparsable value. The core-relative
  /// "bugs=default" spec resolves against the *current* `core`; the batch
  /// parsers below order the keys so that is always the requested one.
  void set(std::string_view key, std::string_view value);

  /// Applies "key=value" pairs onto `base` (or a default-constructed
  /// config). Keys apply in the given order except `bugs`, which applies
  /// last so "bugs=default" resolves against the requested core wherever
  /// it appears in the list.
  static CampaignConfig from_pairs(std::span<const std::string> pairs,
                                   const CampaignConfig& base);
  static CampaignConfig from_pairs(std::span<const std::string> pairs);

  /// Reads every known key present in `args` (--key value / --key=value)
  /// onto `base` — pass the binary's defaults (e.g. its default core) so
  /// core-relative values resolve against them.
  static CampaignConfig from_args(const common::CliArgs& args,
                                  const CampaignConfig& base);
  static CampaignConfig from_args(const common::CliArgs& args);

  /// The known `set()` keys with one-line descriptions, for --help output.
  [[nodiscard]] static std::vector<std::pair<std::string, std::string>>
  known_keys();

  /// Serializes every known key as "key=value" in declaration order (the
  /// checkpoint config section and the wire echo format). Values are
  /// canonical: doubles print shortest-round-trip, the bug set prints as
  /// an explicit name list ("none" when empty), so
  /// from_pairs(to_pairs()) reconstructs an equivalent config and
  /// to_pairs() of that reconstruction is byte-identical.
  [[nodiscard]] std::vector<std::string> to_pairs() const;

  [[nodiscard]] std::uint64_t effective_snapshot_every() const noexcept {
    if (snapshot_every != 0) {
      return snapshot_every;
    }
    return max_tests / 100 == 0 ? 1 : max_tests / 100;
  }
};

/// Fail-fast guard for end-of-run output paths (corpus-out, sharded matrix
/// merge targets): throws std::invalid_argument naming `what` when the
/// parent directory of `path` does not exist, is not a directory, or is
/// not writable. Called at config-validation time so a misspelled path
/// fails before the campaign burns its test budget, not after.
void validate_output_directory(const std::string& path, std::string_view what);

class Campaign;
struct Checkpoint;  // harness/checkpoint.hpp

/// Why a run_until() returned.
enum class StopReason : std::uint8_t {
  kMaxTests,
  kWallClock,
  kBugDetected,
  kAllBugsDetected,
  kCustom,
};

[[nodiscard]] std::string_view stop_reason_name(StopReason reason) noexcept;

/// A composable stop condition: an ordered list of clauses, evaluated
/// between steps; the first satisfied clause ends the run and names the
/// StopReason. Order is precedence — in
///   StopCondition::bug_detected(bug) || StopCondition::max_tests(n)
/// a detection on the very last allowed test still reports kBugDetected.
class StopCondition {
 public:
  using Predicate = std::function<bool(const Campaign&)>;

  /// Stop after `n` total tests have been executed.
  [[nodiscard]] static StopCondition max_tests(std::uint64_t n);
  /// Stop once the campaign's running wall-clock exceeds `budget`.
  /// Nondeterministic by design: it decides when to halt, never results.
  [[nodiscard]] static StopCondition wall_clock(
      std::chrono::steady_clock::duration budget);  // detlint:allow(nondet-source)
  /// Stop once `bug` has been detected (mismatch + firing in one test).
  [[nodiscard]] static StopCondition bug_detected(soc::BugId bug);
  /// Stop once every bug enabled in the campaign's BugSet is detected.
  /// Never satisfied when no bugs are enabled (compose with max_tests).
  [[nodiscard]] static StopCondition all_bugs_detected();
  /// Escape hatch for experiment-specific conditions.
  [[nodiscard]] static StopCondition custom(std::string label, Predicate fn);

  /// Ordered composition: this condition's clauses first, then `other`'s.
  [[nodiscard]] StopCondition operator||(StopCondition other) const;

  /// Human-readable description ("bug_detected(V5) || max_tests(5000)").
  [[nodiscard]] std::string describe() const;

 private:
  struct Clause {
    StopReason reason;
    std::string label;
    Predicate satisfied;
  };

  StopCondition(StopReason reason, std::string label, Predicate satisfied);

  std::vector<Clause> clauses_;

  friend class Campaign;
};

/// One per-batch coverage sample (the raw material of harness/curves).
struct BatchSnapshot {
  std::uint64_t tests_executed = 0;
  std::size_t covered = 0;
  std::size_t universe = 0;

  friend bool operator==(const BatchSnapshot&, const BatchSnapshot&) = default;
};

/// What a run_until() call did.
struct RunResult {
  StopReason reason = StopReason::kMaxTests;
  std::string trigger;                // label of the clause that fired
  std::uint64_t tests_executed = 0;   // campaign total at stop
  std::size_t covered = 0;
  double elapsed_seconds = 0.0;
};

/// Subscribe to campaign events instead of poking fuzzer internals.
/// Callbacks run synchronously on the stepping thread, in subscription
/// order; the campaign outlives no observer (caller owns lifetimes).
class CampaignObserver {
 public:
  virtual ~CampaignObserver() = default;

  virtual void on_arm_selected(const Campaign&, std::size_t /*arm*/) {}
  virtual void on_new_coverage(const Campaign&, const fuzz::StepResult&) {}
  virtual void on_mismatch(const Campaign&, const fuzz::StepResult&) {}
  virtual void on_step(const Campaign&, const fuzz::StepResult&) {}
  virtual void on_batch(const Campaign&, const BatchSnapshot&) {}
  virtual void on_stop(const Campaign&, const RunResult&) {}
};

/// One constructed, observable fuzzing campaign. Construction resolves the
/// policy name through fuzz::FuzzerRegistry, then mab::BanditRegistry
/// (MABFuzz over that bandit), throwing with the list of known names on a
/// miss, and derives every RNG stream from (rng_seed, run_index), so equal
/// configs replay bit-identically.
class Campaign {
 public:
  explicit Campaign(const CampaignConfig& config);

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Executes exactly one test and fires the per-step observer callbacks.
  fuzz::StepResult step();

  /// Batched stepping until `stop` is satisfied, snapshotting coverage
  /// every config().effective_snapshot_every() tests (plus once at stop).
  /// Callable repeatedly; totals accumulate across calls. The snapshot
  /// cadence follows the campaign-global test count, so a run split into
  /// slices (run_slice) produces the same snapshot sequence as one
  /// uninterrupted call.
  RunResult run_until(const StopCondition& stop);

  /// One scheduling quantum: executes at most `quantum` further tests.
  /// When `stop` fires first, the run is finalized exactly like
  /// run_until (trailing snapshot + on_stop) and the engaged result is
  /// returned; when the quantum is exhausted first, no finalization
  /// happens and std::nullopt is returned — call again to continue. The
  /// campaign-service scheduler interleaves jobs through this, so sliced
  /// and uninterrupted runs produce identical snapshots and artifacts.
  std::optional<RunResult> run_slice(const StopCondition& stop,
                                     std::uint64_t quantum);

  /// run_until(StopCondition::max_tests(config().max_tests)).
  RunResult run();

  void add_observer(CampaignObserver& observer);

  /// Appends the engine's complete mutable state — the backend's, then
  /// the fuzzer's save_state — to `out`: a checkpoint's state section.
  /// The campaign's own counters, snapshots and shared corpus travel in
  /// the checkpoint's other fields (harness/checkpoint.hpp).
  void save_state(std::string& out) const;

  [[nodiscard]] fuzz::Fuzzer& fuzzer() noexcept { return *fuzzer_; }
  [[nodiscard]] const fuzz::Fuzzer& fuzzer() const noexcept { return *fuzzer_; }
  [[nodiscard]] fuzz::Backend& backend() noexcept { return *backend_; }
  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

  /// The campaign's shared corpus; null unless corpus_in/corpus_out was
  /// configured (a bare "reuse" campaign keeps a fuzzer-private store).
  [[nodiscard]] const std::shared_ptr<fuzz::Corpus>& corpus() const noexcept {
    return corpus_;
  }
  /// Entries the corpus held when loaded (0 for a fresh store) — the
  /// provenance number experiment artifacts record.
  [[nodiscard]] std::size_t corpus_loaded_entries() const noexcept {
    return corpus_loaded_entries_;
  }
  /// Writes the corpus (binary + JSON manifest) to config().corpus_out.
  /// Returns false when the campaign has no shared corpus or no corpus_out
  /// path; throws std::runtime_error when the write fails.
  bool save_corpus() const;

  [[nodiscard]] std::uint64_t tests_executed() const noexcept { return steps_; }
  [[nodiscard]] std::size_t covered() const noexcept {
    return fuzzer_->accumulated().covered();
  }
  [[nodiscard]] std::size_t coverage_universe() const noexcept {
    return fuzzer_->accumulated().universe();
  }
  /// Wall-clock seconds since the first step (0 before it).
  [[nodiscard]] double elapsed_seconds() const noexcept;

  /// Per-batch coverage samples collected by run_until().
  [[nodiscard]] const std::vector<BatchSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }

  // --- detection bookkeeping (mismatch + same-test firing, per bug) ---
  [[nodiscard]] std::uint64_t mismatches() const noexcept { return mismatches_; }
  [[nodiscard]] bool bug_detected(soc::BugId bug) const noexcept;
  /// 1-based test index of the first detection; 0 when undetected.
  [[nodiscard]] std::uint64_t first_detection_test(soc::BugId bug) const noexcept;
  [[nodiscard]] std::size_t enabled_bug_count() const noexcept;
  [[nodiscard]] std::size_t detected_bug_count() const noexcept;
  [[nodiscard]] bool all_enabled_bugs_detected() const noexcept;

 private:
  // Checkpoint capture and resume read and overwrite the private state.
  friend struct Checkpoint;
  friend std::unique_ptr<Campaign> resume_campaign(const Checkpoint&);

  void take_snapshot();

  CampaignConfig config_;
  std::unique_ptr<fuzz::Backend> backend_;
  std::shared_ptr<fuzz::Corpus> corpus_;
  std::size_t corpus_loaded_entries_ = 0;
  std::unique_ptr<fuzz::Fuzzer> fuzzer_;
  std::vector<CampaignObserver*> observers_;
  std::vector<BatchSnapshot> snapshots_;
  std::array<std::uint64_t, soc::kNumBugs> first_detection_{};  // 0 = never
  std::uint64_t steps_ = 0;
  std::uint64_t mismatches_ = 0;
  // Feeds elapsed_seconds, the one documented nondeterministic artifact
  // field (docs/ARTIFACTS.md).
  // detlint:allow(nondet-source)
  std::chrono::steady_clock::time_point started_{};
  bool timing_started_ = false;
  /// The checkpoint fingerprint of this campaign's config and code,
  /// computed by the first Checkpoint::capture (a probe campaign's first
  /// test) or verified by resume_campaign; cached because every periodic
  /// checkpoint of a job stores the same value.
  mutable std::optional<std::uint64_t> fingerprint_;
};

}  // namespace mabfuzz::harness
