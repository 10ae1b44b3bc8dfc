#pragma once
// Crash-safe campaign checkpointing: the "mabfuzz-checkpoint-v2" binary
// format plus capture / save / load / resume.
//
// Design: a checkpoint is a *verified replay cursor*, not a restored
// memory image. It records (a) the complete campaign config as canonical
// key=value pairs, (b) the step count, and (c) witnesses of everything
// the campaign had computed by that step — coverage ratchet words, bandit
// and fuzzer state blobs, detections, snapshots, the corpus-v2 image.
// resume_campaign() reconstructs the campaign from (a), deterministically
// re-executes exactly (b) steps (the determinism contract makes this the
// same computation the original performed), then proves the replay landed
// on the same state by comparing every witness in (c), throwing a
// descriptive std::runtime_error on any divergence (corrupt snapshot,
// drifted corpus-in file, code-version skew). Byte-identical resumed
// artifacts follow by construction: the resumed campaign *is* the
// original computation, continued.
//
// File layout (all integers little-endian):
//   magic "MABFUZZK" | u32 version=2 | u64 payload_len | payload
//   | u64 fnv1a64(payload)
// The checksum is validated before any payload field is parsed, so a
// bit flip or truncation anywhere is rejected up front, never surfaced
// as a half-parsed campaign. Writes go to "<path>.tmp" then rename(2),
// so a crash mid-write leaves the previous checkpoint intact.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/campaign.hpp"

namespace mabfuzz::harness {

/// A captured campaign state: the replay cursor plus its witnesses.
/// Produced by capture() / load(); consumed by save() / resume_campaign().
struct Checkpoint {
  /// Format version this code reads and writes.
  static constexpr std::uint32_t kVersion = 2;

  // --- service metadata (empty for bare in-process checkpoints) ---
  std::string job_name;
  std::string tenant;
  std::string artifact_out;

  // --- the replay cursor ---
  /// Canonical CampaignConfig::to_pairs() image; from_pairs() of this
  /// reconstructs the campaign.
  std::vector<std::string> config_pairs;
  /// Tests executed when the checkpoint was taken.
  std::uint64_t steps = 0;

  // --- witnesses (replay must reproduce all of these exactly) ---
  std::uint64_t mismatches = 0;
  /// 1-based first-detection test per bug id; 0 = undetected.
  std::vector<std::uint64_t> first_detection;
  std::vector<BatchSnapshot> snapshots;
  /// Fuzzer::append_state() blob (bandit statistics, RNG positions).
  std::string fuzzer_state;
  /// Accumulated-coverage ratchet: universe size + raw backing words.
  std::uint64_t coverage_universe = 0;
  std::vector<std::uint64_t> coverage_words;
  /// Serialized corpus-v2 image of the shared corpus; disengaged via
  /// has_corpus=false when the campaign runs without a shared store.
  bool has_corpus = false;
  std::string corpus_image;

  /// Snapshots the campaign's current state. The caller fills the service
  /// metadata fields afterwards (capture() leaves them empty).
  [[nodiscard]] static Checkpoint capture(const Campaign& campaign);

  /// Atomically writes "<path>.tmp" then renames onto `path`. Throws
  /// std::runtime_error (with strerror context) on I/O failure.
  void save(const std::string& path) const;

  /// Parses a checkpoint file. Throws std::runtime_error naming the file
  /// and the defect (bad magic, version skew, checksum mismatch,
  /// truncation, field bounds) — never returns partial state.
  [[nodiscard]] static Checkpoint load(const std::string& path);
};

/// Rebuilds a campaign from `checkpoint` by deterministic replay and
/// verifies every witness (see the file comment). The returned campaign
/// has executed exactly checkpoint.steps tests and is ready for further
/// run_slice()/run_until() calls. Throws std::runtime_error describing
/// the first diverging witness, std::invalid_argument for a config that
/// no longer parses.
[[nodiscard]] std::unique_ptr<Campaign> resume_campaign(
    const Checkpoint& checkpoint);

}  // namespace mabfuzz::harness
