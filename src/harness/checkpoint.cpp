#include "harness/checkpoint.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string_view>

#include "common/bytes.hpp"
#include "fuzz/corpus.hpp"
#include "soc/bugs.hpp"

namespace mabfuzz::harness {

namespace {

constexpr std::string_view kMagic("MABFUZZK", 8);

/// Sanity bounds mirroring fuzz/corpus.cpp: every allocation a corrupt
/// file could steer is capped before it happens. Strings (config pairs,
/// the witness blob) are tiny; the corpus image and the state section are
/// the legitimately large fields and get corpus-scale headroom (TheHuzz
/// at its pool and database caps holds about 1.8 MB of tests).
constexpr std::uint64_t kMaxString = 1u << 20;
constexpr std::uint64_t kMaxCount = 1u << 20;
constexpr std::uint64_t kMaxState = 1u << 26;
constexpr std::uint64_t kMaxPayload = fuzz::Corpus::kMaxImageBytes +
                                      kMaxState + kMaxString +
                                      (kMaxCount * 32);

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Runs `campaign`'s first test and hashes the state it reaches: its
/// save_state bytes plus its shared-corpus image. Equal configs on equal
/// code reach equal states, so a changed config, corpus-in file or
/// first-test behaviour changes the hash.
std::uint64_t probe_fingerprint(Campaign& campaign) {
  (void)campaign.step();
  std::string bytes;
  campaign.save_state(bytes);
  if (campaign.corpus() != nullptr) {
    bytes += campaign.corpus()->image();
  }
  return fnv1a64(bytes);
}

// Payload is built in memory (little-endian bytes appended to a string)
// so the FNV-1a trailer covers it exactly and load() can checksum before
// parsing a single field.

std::string serialize_payload(const Checkpoint& checkpoint) {
  std::string out;
  common::put_str(out, checkpoint.job_name);
  common::put_str(out, checkpoint.tenant);
  common::put_str(out, checkpoint.artifact_out);
  common::put_u32(out,
                  static_cast<std::uint32_t>(checkpoint.config_pairs.size()));
  for (const std::string& pair : checkpoint.config_pairs) {
    common::put_str(out, pair);
  }
  common::put_u64(out, checkpoint.steps);
  common::put_u64(out, checkpoint.mismatches);
  common::put_u32(
      out, static_cast<std::uint32_t>(checkpoint.first_detection.size()));
  for (const std::uint64_t test : checkpoint.first_detection) {
    common::put_u64(out, test);
  }
  common::put_u64(out, checkpoint.snapshots.size());
  for (const BatchSnapshot& snapshot : checkpoint.snapshots) {
    common::put_u64(out, snapshot.tests_executed);
    common::put_u64(out, snapshot.covered);
    common::put_u64(out, snapshot.universe);
  }
  common::put_blob(out, checkpoint.fuzzer_state);
  common::put_u64(out, checkpoint.coverage_universe);
  common::put_u64(out, checkpoint.coverage_words.size());
  common::put_words(out,
                    std::span<const std::uint64_t>(checkpoint.coverage_words));
  out.push_back(checkpoint.has_corpus ? '\1' : '\0');
  if (checkpoint.has_corpus) {
    common::put_blob(out, checkpoint.corpus_image);
  }
  common::put_u64(out, checkpoint.fingerprint);
  common::put_blob(out, checkpoint.state);
  return out;
}

Checkpoint parse_payload(std::string_view payload) {
  common::ByteReader in(payload, "checkpoint load");
  Checkpoint out;
  out.job_name = in.str("job name", kMaxString);
  out.tenant = in.str("tenant", kMaxString);
  out.artifact_out = in.str("artifact path", kMaxString);
  const std::uint32_t num_pairs = in.u32("config pair count");
  if (num_pairs > kMaxCount) {
    in.fail("config pair count exceeds the sanity bound");
  }
  out.config_pairs.reserve(num_pairs);
  for (std::uint32_t i = 0; i < num_pairs; ++i) {
    out.config_pairs.push_back(in.str("config pair", kMaxString));
  }
  out.steps = in.u64("step count");
  out.mismatches = in.u64("mismatch count");
  const std::uint32_t num_bugs = in.u32("bug count");
  if (num_bugs != soc::kNumBugs) {
    in.fail("bug count " + std::to_string(num_bugs) + " does not match this "
            "build's " + std::to_string(soc::kNumBugs) + " (version skew?)");
  }
  out.first_detection.reserve(num_bugs);
  for (std::uint32_t i = 0; i < num_bugs; ++i) {
    out.first_detection.push_back(in.u64("first detection"));
  }
  const std::uint64_t num_snapshots = in.u64("snapshot count");
  if (num_snapshots > kMaxCount) {
    in.fail("snapshot count exceeds the sanity bound");
  }
  out.snapshots.reserve(static_cast<std::size_t>(num_snapshots));
  for (std::uint64_t i = 0; i < num_snapshots; ++i) {
    BatchSnapshot snapshot;
    snapshot.tests_executed = in.u64("snapshot tests");
    snapshot.covered = static_cast<std::size_t>(in.u64("snapshot covered"));
    snapshot.universe = static_cast<std::size_t>(in.u64("snapshot universe"));
    out.snapshots.push_back(snapshot);
  }
  out.fuzzer_state = in.blob("fuzzer state", kMaxString);
  out.coverage_universe = in.u64("coverage universe");
  out.coverage_words.resize(
      static_cast<std::size_t>(in.count("coverage word count", kMaxCount)));
  in.words("coverage words", std::span<std::uint64_t>(out.coverage_words));
  const unsigned char flag = in.u8("corpus flag");
  if (flag > 1) {
    in.fail("corpus flag must be 0 or 1");
  }
  out.has_corpus = flag == 1;
  if (out.has_corpus) {
    out.corpus_image = in.blob("corpus image", fuzz::Corpus::kMaxImageBytes);
  }
  out.fingerprint = in.u64("fingerprint");
  out.state = in.blob("state", kMaxState);
  if (!in.exhausted()) {
    in.fail("trailing bytes after the state");
  }
  return out;
}

}  // namespace

Checkpoint Checkpoint::capture(const Campaign& campaign) {
  Checkpoint out;
  out.config_pairs = campaign.config().to_pairs();
  out.steps = campaign.tests_executed();
  out.mismatches = campaign.mismatches();
  out.first_detection.assign(soc::kNumBugs, 0);
  for (const soc::BugInfo& info : soc::all_bugs()) {
    out.first_detection[static_cast<std::size_t>(info.id)] =
        campaign.first_detection_test(info.id);
  }
  out.snapshots = campaign.snapshots();
  campaign.fuzzer().append_state(out.fuzzer_state);
  const coverage::Map& global = campaign.fuzzer().accumulated().global();
  out.coverage_universe = global.universe();
  out.coverage_words.assign(global.words().begin(), global.words().end());
  if (campaign.corpus() != nullptr) {
    out.has_corpus = true;
    out.corpus_image = campaign.corpus()->image();
  }
  if (campaign.fingerprint_.has_value()) {
    out.fingerprint = *campaign.fingerprint_;
  } else {
    // The probe is built from the pairs, never from campaign.config():
    // that config holds this campaign's shared corpus and length policy,
    // which the probe's test would change.
    Campaign probe(CampaignConfig::from_pairs(out.config_pairs));
    out.fingerprint = probe_fingerprint(probe);
    campaign.fingerprint_ = out.fingerprint;
  }
  campaign.save_state(out.state);
  return out;
}

void Checkpoint::save(const std::string& path) const {
  const std::string payload = serialize_payload(*this);
  std::string file(kMagic);
  file.reserve(kMagic.size() + 12 + payload.size() + 8);
  common::put_u32(file, kVersion);
  common::put_blob(file, payload);
  common::put_u64(file, fnv1a64(payload));
  common::write_file_atomic(path, file);
}

Checkpoint Checkpoint::load(const std::string& path) {
  const std::string file =
      common::read_file(path, kMagic.size() + 12 + kMaxPayload + 8);
  const std::string context = "checkpoint load: '" + path + "'";
  if (!std::string_view(file).starts_with(kMagic)) {
    throw std::runtime_error(context +
                             " is not a mabfuzz checkpoint (bad magic)");
  }
  common::ByteReader in(std::string_view(file).substr(kMagic.size()),
                        context);
  const std::uint32_t version = in.u32("version");
  if (version != kVersion) {
    in.fail("unsupported version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kVersion) + ")");
  }
  const std::string_view payload =
      in.bytes("payload", in.count("payload length", kMaxPayload));
  const std::uint64_t stored = in.u64("checksum trailer");
  // Checksum gate first: a corrupt payload is rejected wholesale, never
  // parsed into partial state.
  if (stored != fnv1a64(payload)) {
    in.fail("checksum mismatch (corrupt or truncated file)");
  }
  if (!in.exhausted()) {
    in.fail("trailing bytes after the checksum trailer");
  }
  return parse_payload(payload);
}

std::unique_ptr<Campaign> resume_campaign(const Checkpoint& checkpoint) {
  auto campaign = std::make_unique<Campaign>(
      CampaignConfig::from_pairs(checkpoint.config_pairs));
  auto diverged = [](std::string_view witness) -> std::runtime_error {
    return std::runtime_error(
        "checkpoint resume: " + std::string(witness) +
        " diverged from the checkpoint — the config, corpus-in file or "
        "code version changed since the checkpoint was taken");
  };

  // 1. Probe: this config on this code must reach, after one test, the
  // state the capture-time probe reached.
  if (probe_fingerprint(*campaign) != checkpoint.fingerprint) {
    throw diverged("probe test");
  }

  // 2. Restore over the probed campaign. The shared corpus is replaced in
  // place: the fuzzer holds the same pointer.
  if (checkpoint.has_corpus != (campaign->corpus_ != nullptr)) {
    throw diverged("corpus presence");
  }
  if (checkpoint.first_detection.size() != soc::kNumBugs) {
    throw std::runtime_error("checkpoint resume: first-detection list has " +
                             std::to_string(checkpoint.first_detection.size()) +
                             " entries, not one per bug");
  }
  if (checkpoint.has_corpus) {
    fuzz::Corpus corpus = fuzz::Corpus::from_image(checkpoint.corpus_image);
    if (corpus.core() != campaign->corpus_->core() ||
        corpus.universe() != campaign->corpus_->universe()) {
      throw std::runtime_error(
          "checkpoint resume: the corpus image was recorded on '" +
          corpus.core() + "' with universe " +
          std::to_string(corpus.universe()) + ", not this campaign's DUT");
    }
    *campaign->corpus_ = std::move(corpus);
  }
  common::ByteReader state(checkpoint.state, "checkpoint resume: state");
  campaign->backend_->restore_state(state);
  campaign->fuzzer_->restore_state(state);
  if (!state.exhausted()) {
    state.fail("trailing bytes after the fuzzer state");
  }
  campaign->steps_ = checkpoint.steps;
  campaign->mismatches_ = checkpoint.mismatches;
  std::copy(checkpoint.first_detection.begin(),
            checkpoint.first_detection.end(),
            campaign->first_detection_.begin());
  campaign->snapshots_ = checkpoint.snapshots;
  campaign->fingerprint_ = checkpoint.fingerprint;

  // 3. Round trip: the restored campaign must serialize back to the
  // captured bytes and reproduce every witness derived from its state.
  // (Counters and snapshots were restored from their own fields above.)
  std::string restored;
  campaign->save_state(restored);
  if (restored != checkpoint.state) {
    throw std::runtime_error(
        "checkpoint resume: the restored state does not serialize back to "
        "the checkpoint's state bytes");
  }
  if (campaign->backend_->tests_executed() != checkpoint.steps) {
    throw diverged("step count");
  }
  std::string fuzzer_state;
  campaign->fuzzer_->append_state(fuzzer_state);
  if (fuzzer_state != checkpoint.fuzzer_state) {
    throw diverged("fuzzer state");
  }
  const coverage::Map& global = campaign->fuzzer_->accumulated().global();
  if (global.universe() != checkpoint.coverage_universe ||
      !std::equal(global.words().begin(), global.words().end(),
                  checkpoint.coverage_words.begin(),
                  checkpoint.coverage_words.end())) {
    throw diverged("coverage map");
  }
  if (checkpoint.has_corpus &&
      campaign->corpus_->image() != checkpoint.corpus_image) {
    throw diverged("corpus store");
  }
  return campaign;
}

}  // namespace mabfuzz::harness
