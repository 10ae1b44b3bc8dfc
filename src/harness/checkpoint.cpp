#include "harness/checkpoint.hpp"

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
/// service metadata) are tiny. The state is the legitimately large field:
/// the engine gets corpus-scale headroom (TheHuzz at its pool and
/// database caps holds about 1.8 MB of tests), and the campaign's own
/// fields count at their bounds — two counters, the first detections,
/// kMaxSnapshots coverage samples and a full corpus image.
constexpr std::uint64_t kMaxString = 1u << 20;
constexpr std::uint64_t kMaxCount = 1u << 20;
constexpr std::uint64_t kMaxEngineState = 1u << 26;
constexpr std::uint64_t kMaxState =
    kMaxEngineState + 8 + 8 + 4 + 8 * soc::kNumBugs + 8 +
    24 * kMaxSnapshots + 1 + 8 + fuzz::Corpus::kMaxImageBytes;
constexpr std::uint64_t kMaxPayload = kMaxString + kMaxState;

/// Runs `campaign`'s first test and hashes the save_state bytes it
/// reaches, shared-corpus image included, built in `bytes` (cleared first,
/// so a caller can reuse one buffer). Equal configs on equal code reach
/// equal states, so a changed config, corpus-in file or first-test
/// behaviour changes the hash.
std::uint64_t probe_fingerprint(Campaign& campaign, std::string& bytes) {
  (void)campaign.step();
  bytes.clear();
  campaign.save_state(bytes);
  return common::hash64(bytes);
}

/// Appends the payload (every field after the header) to `out`.
void append_payload(const Checkpoint& checkpoint, std::string& out) {
  common::put_str(out, checkpoint.job_name);
  common::put_str(out, checkpoint.tenant);
  common::put_str(out, checkpoint.artifact_out);
  common::put_u32(out,
                  static_cast<std::uint32_t>(checkpoint.config_pairs.size()));
  for (const std::string& pair : checkpoint.config_pairs) {
    common::put_str(out, pair);
  }
  common::put_u64(out, checkpoint.fingerprint);
  common::put_blob(out, checkpoint.state);
}

/// Parses every field of `payload` into `out` but the state, its last
/// field, whose bytes it returns (a view into `payload`).
std::string_view parse_payload(std::string_view payload, Checkpoint& out) {
  common::ByteReader in(payload, "checkpoint load");
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
  out.fingerprint = in.u64("fingerprint");
  const std::string_view state = in.blob_view("state", kMaxState);
  if (!in.exhausted()) {
    in.fail("trailing bytes after the state");
  }
  return state;
}

}  // namespace

Checkpoint Checkpoint::capture(const Campaign& campaign) {
  Checkpoint out;
  out.config_pairs = campaign.config().to_pairs();
  if (campaign.fingerprint_.has_value()) {
    out.fingerprint = *campaign.fingerprint_;
  } else {
    // The probe is built from the pairs, never from campaign.config():
    // that config holds this campaign's shared corpus and length policy,
    // which the probe's test would change.
    Campaign probe(CampaignConfig::from_pairs(out.config_pairs));
    std::string bytes;
    out.fingerprint = probe_fingerprint(probe, bytes);
    campaign.fingerprint_ = out.fingerprint;
  }
  campaign.save_state(out.state);
  return out;
}

std::string Checkpoint::image() const {
  // The payload goes straight into the file, behind a length patched after
  // it. Reserving the state plus slack keeps appends from reallocating.
  std::string file(kMagic);
  file.reserve(4096 + state.size());
  common::put_u32(file, kVersion);
  common::put_u64(file, 0);
  const std::size_t begin = file.size();
  append_payload(*this, file);
  std::string length;
  common::put_u64(length, file.size() - begin);
  file.replace(begin - 8, 8, length);
  common::put_u64(file, common::hash64(std::string_view(file).substr(begin)));
  return file;
}

Checkpoint Checkpoint::from_image(std::string image,
                                  const std::string& context) {
  if (!std::string_view(image).starts_with(kMagic)) {
    throw std::runtime_error(context +
                             " is not a mabfuzz checkpoint (bad magic)");
  }
  common::ByteReader in(std::string_view(image).substr(kMagic.size()),
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
  if (stored != common::hash64(payload)) {
    in.fail("checksum mismatch (corrupt or truncated file)");
  }
  if (!in.exhausted()) {
    in.fail("trailing bytes after the checksum trailer");
  }
  Checkpoint out;
  const std::string_view state = parse_payload(payload, out);
  // The state is most of the image: it takes over the image's buffer
  // rather than a copy of its bytes.
  const auto begin = static_cast<std::size_t>(state.data() - image.data());
  image.resize(begin + state.size());
  image.erase(0, begin);
  out.state = std::move(image);
  return out;
}

void Checkpoint::save(const std::string& path) const {
  common::write_file_atomic(path, image());
}

Checkpoint Checkpoint::load(const std::string& path) {
  return from_image(
      common::read_file(path, kMagic.size() + 12 + kMaxPayload + 8),
      "checkpoint load: '" + path + "'");
}

std::unique_ptr<Campaign> resume_campaign(const Checkpoint& checkpoint) {
  auto campaign = std::make_unique<Campaign>(
      CampaignConfig::from_pairs(checkpoint.config_pairs));

  // 1. Probe: this config on this code must reach, after one test, the
  // state the capture-time probe reached. Its image and the round trip's
  // share one buffer. The buffer outlives the call, one per thread, so a
  // later resume on the thread writes into pages that are already mapped
  // instead of faulting in fresh ones.
  thread_local std::string bytes;
  bytes.reserve(checkpoint.state.size());
  if (probe_fingerprint(*campaign, bytes) != checkpoint.fingerprint) {
    throw std::runtime_error(
        "checkpoint resume: probe test diverged from the checkpoint — the "
        "config, corpus-in file or code version changed since the "
        "checkpoint was taken");
  }

  // 2. Restore over the probed campaign.
  common::ByteReader state(checkpoint.state, "checkpoint resume: state");
  campaign->restore_state(state);
  campaign->fingerprint_ = checkpoint.fingerprint;

  // 3. Round trip: the restored campaign must serialize back to the
  // captured bytes, which checks every value the restore read.
  bytes.clear();
  campaign->save_state(bytes);
  if (bytes != checkpoint.state) {
    throw std::runtime_error(
        "checkpoint resume: the restored state does not serialize back to "
        "the checkpoint's state bytes");
  }
  return campaign;
}

}  // namespace mabfuzz::harness
