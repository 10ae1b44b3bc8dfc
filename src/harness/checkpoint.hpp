#pragma once
// Crash-safe campaign checkpointing: the "mabfuzz-checkpoint-v4" binary
// format plus capture / image / save / load / resume.
//
// Design: a checkpoint carries the campaign's state, and a resume
// restores it instead of replaying the campaign's history. It records
// (a) the complete campaign config as canonical key=value pairs, (b) the
// campaign's own counters, snapshots and shared-corpus image, (c) the
// engine state — Campaign::save_state(), every byte of the backend's and
// the fuzzer's save_state (RNG streams, test ids, bandit statistics,
// arms, pools, coverage maps), (d) witnesses of that state (the fuzzer's
// append_state, the global coverage words) and (e) a fingerprint: the
// common::hash64 of the state a campaign built from (a) reaches after its
// first test. resume_campaign() builds the campaign from (a), runs that
// one probe test and requires its hash to equal (e), then overwrites the
// campaign with (b) and (c), and finally requires a fresh save_state to
// reproduce (c) byte for byte and the restored campaign to reproduce
// every witness. A resume thus costs one construction, one test and a
// parse bounded by the pool and corpus caps, however long the job ran.
//
// What the fingerprint catches: a changed config, a changed corpus-in
// file, or code that changes the campaign's first test. Code drift that
// first shows after the first test is not detected; the resumed campaign
// then continues under the new code from the restored state.
//
// File layout (all integers little-endian):
//   magic "MABFUZZK" | u32 version=4 | u64 payload_len | payload
//   | u64 common::hash64(payload)
// The checksum is validated before any payload field is parsed, so a
// bit flip or truncation anywhere is rejected up front, never surfaced
// as a half-parsed campaign. Writes go to "<path>.tmp" then rename(2),
// so a crash mid-write leaves the previous checkpoint intact.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "soc/bugs.hpp"

namespace mabfuzz::harness {

/// A captured campaign: its config, its state and witnesses of it.
/// Produced by capture() / load(); consumed by save() / resume_campaign().
struct Checkpoint {
  /// Format version this code reads and writes.
  static constexpr std::uint32_t kVersion = 4;

  // --- service metadata (empty for bare in-process checkpoints) ---
  std::string job_name;
  std::string tenant;
  std::string artifact_out;

  /// Canonical CampaignConfig::to_pairs() image; from_pairs() of this
  /// reconstructs the campaign.
  std::vector<std::string> config_pairs;

  // --- the campaign's own state (restored from these fields) ---
  /// Tests executed when the checkpoint was taken.
  std::uint64_t steps = 0;
  std::uint64_t mismatches = 0;
  /// 1-based first-detection test per bug id; 0 = undetected.
  std::array<std::uint64_t, soc::kNumBugs> first_detection{};
  std::vector<BatchSnapshot> snapshots;

  // --- witnesses (the restored campaign must reproduce these exactly) ---
  /// Fuzzer::append_state() blob (bandit statistics, RNG positions).
  std::string fuzzer_state;
  /// Accumulated-coverage ratchet: universe size + raw backing words.
  std::uint64_t coverage_universe = 0;
  std::vector<std::uint64_t> coverage_words;

  /// Serialized corpus-v2 image of the shared corpus (restored in place,
  /// then re-serialized as a witness); disengaged when the campaign runs
  /// without a shared store.
  std::optional<std::string> corpus_image;

  // --- restore (new in v3) ---
  /// common::hash64 of the save_state bytes plus shared-corpus image a
  /// campaign built from config_pairs reaches after its first test.
  std::uint64_t fingerprint = 0;
  /// Campaign::save_state(): the backend's state, then the fuzzer's.
  std::string state;

  /// Snapshots the campaign's current state. The caller fills the service
  /// metadata fields afterwards (capture() leaves them empty). The first
  /// capture of a campaign computes its fingerprint on a probe campaign
  /// built from config_pairs (one construction and one test); later
  /// captures reuse it.
  [[nodiscard]] static Checkpoint capture(const Campaign& campaign);

  /// The checkpoint file's bytes (the layout in the file comment).
  [[nodiscard]] std::string image() const;

  /// Parses an image(). The state takes over `image`'s buffer rather than
  /// a copy of its bytes. Throws std::runtime_error starting with `context`
  /// and naming the defect (bad magic, version skew, checksum mismatch,
  /// truncation, trailing bytes, field bounds) — never returns partial
  /// state.
  [[nodiscard]] static Checkpoint from_image(std::string image,
                                             const std::string& context);

  /// Atomically writes image() to "<path>.tmp" then renames onto `path`.
  /// Throws std::runtime_error (with strerror context) on I/O failure.
  void save(const std::string& path) const;

  /// from_image() of the file at `path`, with the context
  /// "checkpoint load: '<path>'".
  [[nodiscard]] static Checkpoint load(const std::string& path);
};

/// Rebuilds a campaign from `checkpoint`: construction from the config,
/// one probe test checked against the fingerprint, the restore, and the
/// round-trip and witness checks (see the file comment). The returned
/// campaign stands at exactly checkpoint.steps tests and is ready for
/// further run_slice()/run_until() calls. Throws std::runtime_error
/// naming the diverging witness or the malformed state field,
/// std::invalid_argument for a config that no longer parses.
[[nodiscard]] std::unique_ptr<Campaign> resume_campaign(
    const Checkpoint& checkpoint);

}  // namespace mabfuzz::harness
