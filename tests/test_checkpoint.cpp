// Checkpoint-v5 tests: struct round-trip through the binary format,
// corruption rejection (truncation at every byte boundary, bit flips,
// bad magic/version — always a descriptive throw, never partial state;
// test_input_mutation covers mutants that pass the checksum), each
// Campaign::restore_state refusal on hand-built state bytes, restore
// equivalence (a resumed campaign of every built-in policy finishes with
// exactly the state of an uninterrupted one, and a resume runs one probe
// test, not the history), divergence detection when the config or the
// warm-start corpus drifted under a checkpoint, and a clean refusal (not
// an abort) of a checkpoint whose config cannot run.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "core/scheduler.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/reuse_fuzzer.hpp"
#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"

namespace mabfuzz::harness {
namespace {

CampaignConfig tiny(std::string fuzzer, std::uint64_t tests = 120) {
  CampaignConfig config;
  config.fuzzer = std::move(fuzzer);
  config.core = soc::CoreKind::kRocket;
  config.max_tests = tests;
  config.rng_seed = 11;
  config.snapshot_every = 25;
  return config;
}

/// Runs `campaign` forward by exactly `steps` tests without finalizing.
void advance(Campaign& campaign, std::uint64_t steps) {
  ASSERT_FALSE(campaign.run_slice(StopCondition::max_tests(UINT64_MAX), steps)
                   .has_value());
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return std::move(out).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointFormatTest, SaveLoadRoundTripPreservesEveryField) {
  Campaign campaign(tiny("ucb"));
  advance(campaign, 60);
  Checkpoint before = Checkpoint::capture(campaign);
  before.job_name = "job-7";
  before.tenant = "team-a";
  before.artifact_out = "/tmp/out/prefix";

  const std::string path = testing::TempDir() + "roundtrip.ckpt";
  before.save(path);
  EXPECT_EQ(read_file(path), before.image());
  const Checkpoint after = Checkpoint::load(path);

  EXPECT_EQ(after.job_name, before.job_name);
  EXPECT_EQ(after.tenant, before.tenant);
  EXPECT_EQ(after.artifact_out, before.artifact_out);
  EXPECT_EQ(after.config_pairs, before.config_pairs);
  EXPECT_NE(before.fingerprint, 0u);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_FALSE(before.state.empty());
  EXPECT_EQ(after.state, before.state);
}

TEST(CheckpointFormatTest, CaptureRecordsMidRunState) {
  Campaign campaign(tiny("exp3"));
  advance(campaign, 50);
  const Checkpoint checkpoint = Checkpoint::capture(campaign);
  std::string state;
  campaign.save_state(state);
  EXPECT_EQ(checkpoint.state, state);

  // The state leads with the campaign's own fields.
  common::ByteReader in(checkpoint.state, "state");
  EXPECT_EQ(in.u64("step count"), 50u);
  EXPECT_EQ(in.u64("mismatch count"), campaign.mismatches());
  ASSERT_EQ(in.u32("bug count"), soc::kNumBugs);
  for (std::size_t bug = 0; bug < soc::kNumBugs; ++bug) {
    EXPECT_EQ(in.u64("first detection"),
              campaign.first_detection_test(static_cast<soc::BugId>(bug)));
  }
  ASSERT_EQ(in.u64("snapshot count"), 2u);  // snapshot-every=25
  for (const BatchSnapshot& snapshot : campaign.snapshots()) {
    EXPECT_EQ(in.u64("snapshot tests"), snapshot.tests_executed);
    EXPECT_EQ(in.u64("snapshot covered"), snapshot.covered);
    EXPECT_EQ(in.u64("snapshot universe"), snapshot.universe);
  }
  EXPECT_EQ(in.u8("corpus flag"), 0u);  // no corpus configured
}

TEST(CheckpointFormatTest, EmbedsCorpusImageWhenConfigured) {
  CampaignConfig config = tiny("ucb");
  config.corpus_out = testing::TempDir() + "embed-corpus.bin";
  Campaign campaign(config);
  advance(campaign, 40);
  const Checkpoint checkpoint = Checkpoint::capture(campaign);
  common::ByteReader in(checkpoint.state, "state");
  // Past the counters, the bug count, the detections and one snapshot
  // (40 tests at snapshot-every=25).
  (void)in.bytes("campaign fields", 8 + 8 + 4 + 8 * soc::kNumBugs + 8 + 24);
  ASSERT_EQ(in.u8("corpus flag"), 1u);
  // The image is a loadable corpus-v2 store equal to the live one.
  const fuzz::Corpus decoded = fuzz::Corpus::from_image(
      in.blob_view("corpus image", fuzz::Corpus::kMaxImageBytes));
  EXPECT_EQ(decoded, *campaign.corpus());
}

// --- corruption -----------------------------------------------------------------

TEST(CheckpointCorruptionTest, EveryTruncationLengthIsRejected) {
  Campaign campaign(tiny("ucb", 60));
  advance(campaign, 30);
  const std::string bytes = Checkpoint::capture(campaign).image();
  ASSERT_GT(bytes.size(), 40u);

  // Every strictly-shorter prefix must throw: the trailing checksum (and
  // before it, the header's payload length) makes truncation detectable
  // at any byte boundary.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)Checkpoint::from_image(bytes.substr(0, cut), "trunc"),
                 std::runtime_error)
        << "prefix of " << cut << " bytes parsed successfully";
  }
  // The file path reads through the same parser.
  const std::string path = testing::TempDir() + "trunc-cut.ckpt";
  write_file(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW((void)Checkpoint::load(path), std::runtime_error);
}

TEST(CheckpointCorruptionTest, BitFlipsAreRejectedEverywhere) {
  Campaign campaign(tiny("thompson", 60));
  advance(campaign, 30);
  const std::string bytes = Checkpoint::capture(campaign).image();

  // A flip in the magic/header fails structurally; a flip anywhere in the
  // payload or trailer fails the checksum gate. Stride keeps it fast
  // while still probing every region of the file.
  std::string corrupt = bytes;
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    corrupt[at] = static_cast<char>(bytes[at] ^ 0x20);
    EXPECT_THROW((void)Checkpoint::from_image(corrupt, "flip"),
                 std::runtime_error)
        << "flip at byte " << at << " parsed successfully";
    corrupt[at] = bytes[at];
  }
  // The file path reads through the same parser.
  const std::string path = testing::TempDir() + "flip-bad.ckpt";
  const std::size_t at = bytes.size() / 3;
  corrupt[at] = static_cast<char>(bytes[at] ^ 0x20);
  write_file(path, corrupt);
  EXPECT_THROW((void)Checkpoint::load(path), std::runtime_error);
}

TEST(CheckpointCorruptionTest, ErrorsAreDescriptive) {
  const std::string missing = testing::TempDir() + "no-such.ckpt";
  try {
    (void)Checkpoint::load(missing);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }

  const std::string not_a_checkpoint = testing::TempDir() + "not-ckpt.bin";
  write_file(not_a_checkpoint, "this is not a checkpoint at all");
  try {
    (void)Checkpoint::load(not_a_checkpoint);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }

  Campaign campaign(tiny("ucb", 40));
  advance(campaign, 20);
  const std::string path = testing::TempDir() + "checksum.ckpt";
  Checkpoint::capture(campaign).save(path);
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_file(path, bytes);
  try {
    (void)Checkpoint::load(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }

  // An older file is refused up front by its version, not half-resumed:
  // version 1 (its config section names keys this build no longer knows),
  // version 3, the last one before the word-wise checksum, and version 4,
  // the last one with the campaign's fields outside its state.
  const std::string old_version = testing::TempDir() + "version.ckpt";
  Checkpoint::capture(campaign).save(old_version);
  const std::string current = read_file(old_version);
  ASSERT_GT(current.size(), 12u);
  for (const char version : {'\1', '\3', '\4'}) {
    bytes = current;
    bytes[8] = version;  // u32 version, little-endian, after the 8-byte magic
    bytes[9] = bytes[10] = bytes[11] = 0;
    write_file(old_version, bytes);
    try {
      (void)Checkpoint::load(old_version);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unsupported version " + std::to_string(version) +
                    " (this build reads version 5)"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- resume ---------------------------------------------------------------------

TEST(CheckpointResumeTest, ResumedCampaignFinishesIdenticallyToUninterrupted) {
  const CampaignConfig config = tiny("ucb", 120);

  // Reference: one uninterrupted run.
  Campaign reference(config);
  const RunResult ref_run =
      reference.run_until(StopCondition::max_tests(config.max_tests));

  // Checkpointed: run 47 tests, capture, save, load, resume, finish.
  Campaign interrupted(config);
  advance(interrupted, 47);
  const std::string path = testing::TempDir() + "resume.ckpt";
  Checkpoint::capture(interrupted).save(path);

  const std::unique_ptr<Campaign> resumed =
      resume_campaign(Checkpoint::load(path));
  EXPECT_EQ(resumed->tests_executed(), 47u);
  const RunResult resumed_run =
      resumed->run_until(StopCondition::max_tests(config.max_tests));

  EXPECT_EQ(resumed_run.reason, ref_run.reason);
  EXPECT_EQ(resumed_run.tests_executed, ref_run.tests_executed);
  EXPECT_EQ(resumed_run.covered, ref_run.covered);
  EXPECT_EQ(resumed->snapshots(), reference.snapshots());
  EXPECT_EQ(resumed->mismatches(), reference.mismatches());
  std::string resumed_state;
  std::string reference_state;
  resumed->fuzzer().append_state(resumed_state);
  reference.fuzzer().append_state(reference_state);
  EXPECT_EQ(resumed_state, reference_state);
}

TEST(CheckpointResumeTest, ResumePreservesCorpusByteForByte) {
  CampaignConfig config = tiny("ucb", 90);
  config.corpus_out = testing::TempDir() + "resume-corpus.bin";
  Campaign interrupted(config);
  advance(interrupted, 45);
  const std::string path = testing::TempDir() + "resume-corpus.ckpt";
  Checkpoint::capture(interrupted).save(path);

  const std::unique_ptr<Campaign> resumed =
      resume_campaign(Checkpoint::load(path));
  ASSERT_NE(resumed->corpus(), nullptr);
  EXPECT_EQ(*resumed->corpus(), *interrupted.corpus());
}

TEST(CheckpointResumeTest, ConfigDriftIsDetectedAsDivergence) {
  Campaign campaign(tiny("ucb", 80));
  advance(campaign, 40);
  Checkpoint checkpoint = Checkpoint::capture(campaign);

  // Tamper with the seed: a different seed runs a different first test,
  // so the probe must report the divergence.
  for (std::string& pair : checkpoint.config_pairs) {
    if (pair.rfind("seed=", 0) == 0) {
      pair = "seed=999";
    }
  }
  const std::string path = testing::TempDir() + "drift.ckpt";
  checkpoint.save(path);
  try {
    (void)resume_campaign(Checkpoint::load(path));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos);
  }
}

TEST(CheckpointResumeTest, OutOfRangeConfigIsRefusedNotAborted) {
  // A checkpoint file is outside input: a config no campaign can run must
  // come back as an error naming the key, not abort the process in a
  // bandit constructor.
  Campaign campaign(tiny("ucb", 80));
  advance(campaign, 20);
  Checkpoint checkpoint = Checkpoint::capture(campaign);
  bool rewritten = false;
  for (std::string& pair : checkpoint.config_pairs) {
    if (pair.rfind("arms=", 0) == 0) {
      pair = "arms=0";
      rewritten = true;
    }
  }
  ASSERT_TRUE(rewritten);
  const std::string path = testing::TempDir() + "zero-arms.ckpt";
  checkpoint.save(path);
  try {
    (void)resume_campaign(Checkpoint::load(path));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("arms"), std::string::npos);
  }
}

TEST(CheckpointResumeTest, DriftedWarmStartCorpusIsDetected) {
  // Warm-start store: one short campaign writes it.
  const std::string store = testing::TempDir() + "warm-store.bin";
  {
    CampaignConfig seeder = tiny("ucb", 40);
    seeder.corpus_out = store;
    Campaign campaign(seeder);
    (void)campaign.run();
    ASSERT_TRUE(campaign.save_corpus());
  }

  CampaignConfig config = tiny("ucb", 80);
  config.corpus_in = store;
  config.corpus_out = store + ".next";
  Campaign campaign(config);
  advance(campaign, 30);
  const std::string path = testing::TempDir() + "warm.ckpt";
  Checkpoint::capture(campaign).save(path);

  // The corpus-in file drifts between checkpoint and resume: the campaign
  // now starts from different seeds, which the probe catches.
  {
    CampaignConfig seeder = tiny("exp3", 60);
    seeder.rng_seed = 77;
    seeder.corpus_out = store;
    Campaign other(seeder);
    (void)other.run();
    ASSERT_TRUE(other.save_corpus());
  }
  EXPECT_THROW((void)resume_campaign(Checkpoint::load(path)),
               std::runtime_error);
}

TEST(CheckpointResumeTest, ZeroStepCheckpointResumesToFreshCampaign) {
  const CampaignConfig config = tiny("epsilon-greedy", 50);
  Campaign fresh(config);
  const std::string path = testing::TempDir() + "zero.ckpt";
  Checkpoint::capture(fresh).save(path);
  const std::unique_ptr<Campaign> resumed =
      resume_campaign(Checkpoint::load(path));
  EXPECT_EQ(resumed->tests_executed(), 0u);
  const RunResult run = resumed->run();
  Campaign reference(config);
  const RunResult ref = reference.run();
  EXPECT_EQ(run.covered, ref.covered);
  EXPECT_EQ(resumed->snapshots(), reference.snapshots());
}

/// What a finished campaign leaves behind, compared bit for bit.
struct FinalState {
  std::vector<BatchSnapshot> snapshots;
  std::size_t covered = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::uint64_t> first_detection;
  std::string witness;  // Fuzzer::append_state
  std::string corpus;   // shared-corpus image; empty without one
  std::string state;    // Campaign::save_state

  friend bool operator==(const FinalState&, const FinalState&) = default;
};

FinalState final_state(const Campaign& campaign) {
  FinalState out;
  out.snapshots = campaign.snapshots();
  out.covered = campaign.covered();
  out.mismatches = campaign.mismatches();
  for (const soc::BugInfo& info : soc::all_bugs()) {
    out.first_detection.push_back(campaign.first_detection_test(info.id));
  }
  campaign.fuzzer().append_state(out.witness);
  if (campaign.corpus() != nullptr) {
    out.corpus = campaign.corpus()->image();
  }
  campaign.save_state(out.state);
  return out;
}

/// Arm resets so far; nullopt for policies without arms.
std::optional<std::uint64_t> resets_of(const Campaign& campaign) {
  if (const auto* mab =
          dynamic_cast<const core::MabScheduler*>(&campaign.fuzzer())) {
    return mab->total_resets();
  }
  if (const auto* reuse =
          dynamic_cast<const fuzz::ReuseFuzzer*>(&campaign.fuzzer())) {
    return reuse->total_resets();
  }
  return std::nullopt;
}

TEST(CheckpointResumeTest, EveryPolicyResumesBitExact) {
  const std::string dir = testing::TempDir();
  const std::string store = dir + "bit-exact-store.bin";
  {
    CampaignConfig seeder = tiny("ucb", 60);
    seeder.corpus_out = store;
    Campaign campaign(seeder);
    (void)campaign.run();
    ASSERT_TRUE(campaign.save_corpus());
  }
  CampaignConfig base = tiny("thehuzz", 320);
  base.bugs = soc::default_bugs(base.core);

  const std::vector<std::vector<std::string>> variants = {
      {"fuzzer=thehuzz"},
      {"fuzzer=random"},
      {"fuzzer=reuse"},
      {"fuzzer=reuse", "corpus-out=" + dir + "bit-exact-out.bin"},
      {"fuzzer=reuse", "corpus-in=" + store},
      {"fuzzer=ucb"},
      {"fuzzer=exp3"},
      {"fuzzer=thompson"},
      {"fuzzer=epsilon-greedy", "adaptive-ops=true", "adaptive-length=true"},
  };
  for (const std::vector<std::string>& pairs : variants) {
    const CampaignConfig config = CampaignConfig::from_pairs(pairs, base);
    SCOPED_TRACE(config.to_pairs().front() + " " + config.corpus_in +
                 config.corpus_out);
    Campaign reference(config);
    (void)reference.run();
    const FinalState expected = final_state(reference);

    // The last checkpoint lands right after the first arm reset.
    std::uint64_t after_reset = config.max_tests - 10;
    {
      Campaign scout(config);
      if (resets_of(scout).has_value()) {
        while (resets_of(scout).value_or(0) == 0 &&
               scout.tests_executed() < config.max_tests) {
          (void)scout.step();
        }
        ASSERT_GT(resets_of(scout).value_or(0), 0u);
        after_reset = scout.tests_executed();
      }
    }
    for (const std::uint64_t at :
         {std::uint64_t{0}, std::uint64_t{1}, config.max_tests / 2,
          after_reset}) {
      SCOPED_TRACE("checkpoint at " + std::to_string(at));
      Campaign interrupted(config);
      advance(interrupted, at);
      const std::string path = dir + "bit-exact.ckpt";
      Checkpoint::capture(interrupted).save(path);
      const std::unique_ptr<Campaign> resumed =
          resume_campaign(Checkpoint::load(path));
      ASSERT_EQ(resumed->tests_executed(), at);
      if (at == after_reset && resets_of(*resumed).has_value()) {
        EXPECT_GT(resets_of(*resumed).value_or(0), 0u);
      }
      (void)resumed->run();
      EXPECT_EQ(final_state(*resumed), expected);
    }
  }
}

TEST(CheckpointResumeTest, ResumeRunsOneTestNotTheHistory) {
  const CampaignConfig config = tiny("ucb", 1000);
  Campaign interrupted(config);
  advance(interrupted, 400);
  const std::string path = testing::TempDir() + "one-test.ckpt";
  Checkpoint::capture(interrupted).save(path);
  const std::unique_ptr<Campaign> resumed =
      resume_campaign(Checkpoint::load(path));
  ASSERT_EQ(resumed->tests_executed(), 400u);

  // Decode-cache lookups count every simulated fetch: a resume may cost
  // what one test of a fresh campaign costs, not 400 tests' worth.
  Campaign fresh(config);
  (void)fresh.step();
  EXPECT_LE(resumed->backend().decode_cache().lookups(),
            fresh.backend().decode_cache().lookups());
}

TEST(CheckpointResumeTest, StopCapAboveTheBudgetStopsAtTheBudget) {
  // The construction-time snapshot bound checks only `tests`, so a run
  // must not go past it whatever cap its caller passes: this one would
  // otherwise take kMaxSnapshots + 1 snapshots and write a checkpoint its
  // own loader refuses.
  CampaignConfig config = tiny("random", 10);
  config.snapshot_every = 1;
  Campaign campaign(config);
  const RunResult run =
      campaign.run_until(StopCondition::max_tests(kMaxSnapshots + 1));
  EXPECT_EQ(run.reason, StopReason::kMaxTests);
  EXPECT_EQ(run.tests_executed, 10u);
  EXPECT_EQ(campaign.snapshots().size(), 10u);

  const std::string path = testing::TempDir() + "budget.ckpt";
  Checkpoint::capture(campaign).save(path);
  const std::unique_ptr<Campaign> resumed =
      resume_campaign(Checkpoint::load(path));
  EXPECT_EQ(resumed->tests_executed(), 10u);
  EXPECT_EQ(resumed->snapshots(), campaign.snapshots());
}

// --- Campaign::restore_state refusals -------------------------------------------

/// Campaign::save_state's layout built field by field, so a test can set
/// one field out of bounds: the campaign's own fields (no mismatches, no
/// detections, no snapshot records), then `engine`, the backend's and the
/// fuzzer's state.
struct HandBuiltState {
  std::uint64_t steps = 0;
  std::uint32_t bug_count = soc::kNumBugs;
  std::uint64_t snapshot_count = 0;
  std::uint8_t corpus_flag = 0;
  std::optional<std::string> corpus_image;
  std::string engine;

  [[nodiscard]] std::string bytes() const {
    std::string out;
    common::put_u64(out, steps);
    common::put_u64(out, 0);  // mismatch count
    common::put_u32(out, bug_count);
    for (std::uint32_t i = 0; i < bug_count; ++i) {
      common::put_u64(out, 0);  // undetected
    }
    common::put_u64(out, snapshot_count);
    out.push_back(static_cast<char>(corpus_flag));
    if (corpus_image) {
      common::put_blob(out, *corpus_image);
    }
    return out + engine;
  }
};

/// The state of `campaign` before its first test, hand-built.
HandBuiltState fresh_state(Campaign& campaign) {
  HandBuiltState state;
  campaign.backend().save_state(state.engine);
  campaign.fuzzer().save_state(state.engine);
  if (campaign.corpus() != nullptr) {
    state.corpus_flag = 1;
    state.corpus_image = campaign.corpus()->image();
  }
  return state;
}

CampaignConfig with_corpus(CampaignConfig config) {
  config.corpus_out = testing::TempDir() + "restore-state.corpus";
  return config;
}

/// restore_state of `bytes` into `campaign` must throw a
/// std::runtime_error whose message contains `refusal`.
void expect_refused(Campaign& campaign, const std::string& bytes,
                    std::string_view refusal) {
  common::ByteReader in(bytes, "restore");
  try {
    campaign.restore_state(in);
    FAIL() << "expected std::runtime_error containing '" << refusal << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string_view(e.what()).find(refusal), std::string_view::npos)
        << e.what();
  }
}

TEST(CampaignRestoreStateTest, HandBuiltFreshStateRoundTrips) {
  // The layout the refusal tests below build on restores as it stands.
  for (const CampaignConfig& config :
       {tiny("random"), with_corpus(tiny("random"))}) {
    Campaign campaign(config);
    const std::string bytes = fresh_state(campaign).bytes();
    (void)campaign.step();
    common::ByteReader in(bytes, "restore");
    campaign.restore_state(in);
    EXPECT_EQ(campaign.tests_executed(), 0u);
    std::string saved;
    campaign.save_state(saved);
    EXPECT_EQ(saved, bytes);
  }
}

TEST(CampaignRestoreStateTest, RefusesABugCountOfSix) {
  Campaign campaign(tiny("random"));
  HandBuiltState state = fresh_state(campaign);
  state.bug_count = 6;
  expect_refused(campaign, state.bytes(), "bug count 6");
}

TEST(CampaignRestoreStateTest, RefusesTooManySnapshotsBeforeAllocating) {
  // No snapshot records follow: the count alone must be refused, before
  // 2^20 + 1 of them are allocated and read.
  Campaign campaign(tiny("random"));
  HandBuiltState state = fresh_state(campaign);
  state.snapshot_count = kMaxSnapshots + 1;
  expect_refused(campaign, state.bytes(),
                 "snapshot count 1048577 exceeds its bound 1048576");
}

TEST(CampaignRestoreStateTest, RefusesACorpusFlagOfTwo) {
  Campaign campaign(tiny("random"));
  HandBuiltState state = fresh_state(campaign);
  state.corpus_flag = 2;
  expect_refused(campaign, state.bytes(), "corpus flag 2 must be 0 or 1");
}

TEST(CampaignRestoreStateTest, RefusesACorpusImageWithoutASharedCorpus) {
  Campaign campaign(tiny("random"));
  Campaign other(with_corpus(tiny("random")));
  HandBuiltState state = fresh_state(campaign);
  state.corpus_flag = 1;
  state.corpus_image = other.corpus()->image();
  expect_refused(campaign, state.bytes(),
                 "corpus flag 1 but the campaign has no shared corpus");
}

TEST(CampaignRestoreStateTest, RefusesAMissingCorpusImage) {
  Campaign campaign(with_corpus(tiny("random")));
  HandBuiltState state = fresh_state(campaign);
  state.corpus_flag = 0;
  state.corpus_image.reset();
  expect_refused(campaign, state.bytes(),
                 "corpus flag 0 but the campaign has a shared corpus");
}

TEST(CampaignRestoreStateTest, RefusesAnOversizedCorpusImage) {
  // Only the length follows the flag: it is refused before it is read.
  Campaign campaign(with_corpus(tiny("random")));
  HandBuiltState state = fresh_state(campaign);
  state.corpus_image.reset();
  state.engine.clear();
  std::string bytes = state.bytes();
  common::put_u64(bytes, fuzz::Corpus::kMaxImageBytes + 1);
  expect_refused(campaign, bytes, "corpus image length 67108865 exceeds");
}

TEST(CampaignRestoreStateTest, RefusesABoomStoreOnARocketCampaign) {
  Campaign campaign(with_corpus(tiny("random")));
  CampaignConfig boom = with_corpus(tiny("random"));
  boom.core = soc::CoreKind::kBoom;
  Campaign other(boom);
  HandBuiltState state = fresh_state(campaign);
  state.corpus_image = other.corpus()->image();
  expect_refused(campaign, state.bytes(), "corpus image recorded on 'boom'");
}

TEST(CampaignRestoreStateTest, RefusesAStepCountOtherThanTheBackends) {
  Campaign campaign(tiny("random"));
  HandBuiltState state = fresh_state(campaign);
  state.steps = 1;
  expect_refused(campaign, state.bytes(),
                 "step count 1 does not match the backend's 0");
}

TEST(CampaignRestoreStateTest, RefusesTrailingBytes) {
  Campaign campaign(tiny("random"));
  HandBuiltState state = fresh_state(campaign);
  state.engine.push_back('\0');
  expect_refused(campaign, state.bytes(), "trailing bytes");
}

}  // namespace
}  // namespace mabfuzz::harness
