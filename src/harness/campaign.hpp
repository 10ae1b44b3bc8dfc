#pragma once
// The campaign API: the one construction-and-run path every bench, example
// and test drives experiments through.
//
//  - CampaignConfig: one declarative description of an experiment — which
//    policy (by registry name), which core, which bugs, how many tests —
//    with every policy knob in the nested fuzz::PolicyConfig. Parseable
//    from "key=value" pairs (and from common::CliArgs), so every binary
//    shares one flag vocabulary.
//  - Campaign: the run driver. Batched stepping via run_until() until a
//    StopCondition (a test cap, optionally ended early by a target bug's
//    first detection), per-batch coverage snapshots feeding
//    harness/curves, and an observer interface replacing the hand-rolled
//    step loops that used to poke fuzzer internals.
//
// Observers get on_step once per executed test and on_batch after each
// snapshot (every snapshot_every steps, plus once at stop).

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
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
  /// at least 1). At most kMaxSnapshots snapshots per campaign.
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

/// Most coverage snapshots one campaign may take: Campaign::restore_state
/// refuses more, and Campaign construction refuses a config whose
/// ceil(tests / effective_snapshot_every()) exceeds it.
inline constexpr std::uint64_t kMaxSnapshots = std::uint64_t{1} << 20;

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
  kBugDetected,
};

[[nodiscard]] std::string_view stop_reason_name(StopReason reason) noexcept;

/// When a run stops: once the campaign has executed `test_cap` tests (or
/// its config's max_tests, if lower: no run goes past the budget its
/// snapshot bound was checked against), or at `target_bug`'s first
/// detection (mismatch + firing in one test) if it comes first. Checked
/// between steps, so an already satisfied condition executes zero tests;
/// a detection on the capped test itself reports kBugDetected.
struct StopCondition {
  std::uint64_t test_cap = 0;
  std::optional<soc::BugId> target_bug;

  /// Stop after `n` total tests have been executed.
  [[nodiscard]] static StopCondition max_tests(std::uint64_t n) noexcept {
    return {n, std::nullopt};
  }
  /// Stop at `bug`'s first detection, or after `n` total tests.
  [[nodiscard]] static StopCondition bug_detected(soc::BugId bug,
                                                  std::uint64_t n) noexcept {
    return {n, bug};
  }
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

  virtual void on_step(const Campaign&, const fuzz::StepResult&) {}
  virtual void on_batch(const Campaign&, const BatchSnapshot&) {}
};

/// One constructed, observable fuzzing campaign. Construction resolves the
/// policy name through fuzz::FuzzerRegistry, then mab::BanditRegistry
/// (MABFuzz over that bandit), throwing with the list of known names on a
/// miss, and derives every RNG stream from (rng_seed, run_index), so equal
/// configs replay bit-identically. A config that would take more than
/// kMaxSnapshots snapshots is refused with std::invalid_argument.
class Campaign {
 public:
  explicit Campaign(const CampaignConfig& config);

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Executes exactly one test and notifies every observer's on_step.
  fuzz::StepResult step();

  /// Batched stepping until `stop` is satisfied, snapshotting coverage
  /// every config().effective_snapshot_every() tests (plus once at stop).
  /// Callable repeatedly; totals accumulate across calls. The snapshot
  /// cadence follows the campaign-global test count, so a run split into
  /// slices (run_slice) produces the same snapshot sequence as one
  /// uninterrupted call.
  RunResult run_until(const StopCondition& stop);

  /// One scheduling quantum: executes at most `quantum` further tests,
  /// never past min(stop.test_cap, config().max_tests) tests in all.
  /// When `stop` fires first, the run is finalized exactly like
  /// run_until (trailing snapshot) and the engaged result is
  /// returned; when the quantum is exhausted first, no finalization
  /// happens and std::nullopt is returned — call again to continue. The
  /// campaign-service scheduler interleaves jobs through this, so sliced
  /// and uninterrupted runs produce identical snapshots and artifacts.
  std::optional<RunResult> run_slice(const StopCondition& stop,
                                     std::uint64_t quantum);

  /// run_until(StopCondition::max_tests(config().max_tests)).
  RunResult run();

  void add_observer(CampaignObserver& observer);

  /// Appends the campaign's complete mutable state to `out`: its step and
  /// mismatch counts, each bug's first detection, its snapshots, the
  /// shared corpus's image when there is one, then the backend's and the
  /// fuzzer's save_state (layout in docs/ARTIFACTS.md). A checkpoint's
  /// state section.
  void save_state(std::string& out) const;

  /// The exact inverse of save_state(), applied to a campaign constructed
  /// from the same config; the shared corpus is replaced in place, since
  /// the fuzzer holds the same pointer. Every count is bounded before
  /// anything is allocated. Throws std::runtime_error naming the field on
  /// a bug count other than soc::kNumBugs, more than kMaxSnapshots
  /// snapshots, a corpus flag above 1 or at odds with the config, a corpus
  /// image over its bound or from another DUT, a step count other than
  /// the backend's, or bytes after the fuzzer's state; the campaign is
  /// then left half restored and must be discarded.
  void restore_state(common::ByteReader& in);

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

 private:
  // Checkpoint capture and resume read and set the cached fingerprint.
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
