// Campaign-API tests: registry lookup and error reporting, key=value
// config parsing, paper-default invariants, stop-condition precedence,
// observer callback ordering, and the driver's determinism contract — a
// batched run_until() is bit-identical to a hand-rolled step() loop for the
// same seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/registry.hpp"
#include "harness/campaign.hpp"
#include "harness/curves.hpp"
#include "mab/registry.hpp"
#include "mab/ucb.hpp"

namespace mabfuzz::harness {
namespace {

// Paper Sec. IV-A defaults are compile-time constants of the config types;
// a drive-by change to any of them fails right here.
static_assert(mab::BanditConfig{}.num_arms == 10);
static_assert(mab::BanditConfig{}.epsilon == 0.1);
static_assert(mab::BanditConfig{}.eta == 0.1);

CampaignConfig tiny(std::string fuzzer, std::uint64_t tests = 60) {
  CampaignConfig config;
  config.fuzzer = std::move(fuzzer);
  config.core = soc::CoreKind::kRocket;
  config.max_tests = tests;
  return config;
}

/// The first `entries` of the distinct seed lengths 4096 (the length cap),
/// 12, 13, 14, ...
std::vector<unsigned> distinct_lengths(std::size_t entries) {
  std::vector<unsigned> out = {4096};
  for (unsigned length = 12; out.size() < entries; ++length) {
    out.push_back(length);
  }
  return out;
}

/// A length-choices value: distinct_lengths(entries), comma-separated.
std::string lengths(std::size_t entries) {
  std::string out;
  for (const unsigned length : distinct_lengths(entries)) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(length);
  }
  return out;
}

// --- registries -----------------------------------------------------------------

TEST(BanditRegistryTest, ListsBuiltins) {
  const auto names = mab::BanditRegistry::instance().names();
  for (const char* expected : {"epsilon-greedy", "ucb", "exp3", "thompson"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(BanditRegistryTest, UnknownNameErrorListsAvailablePolicies) {
  try {
    (void)mab::make_bandit("no-such-policy", mab::BanditConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-policy"), std::string::npos);
    EXPECT_NE(message.find("epsilon-greedy"), std::string::npos);
    EXPECT_NE(message.find("ucb"), std::string::npos);
    EXPECT_NE(message.find("thompson"), std::string::npos);
  }
}

TEST(BanditRegistryTest, DuplicateRegistrationRejected) {
  auto& registry = mab::BanditRegistry::instance();
  const std::string name = "test-duplicate-bandit";
  registry.add(name, [](const mab::BanditConfig& config) {
    return std::make_unique<mab::Ucb>(config.num_arms,
                                      common::Xoshiro256StarStar(1));
  });
  EXPECT_THROW(registry.add(name,
                            [](const mab::BanditConfig& config) {
                              return std::make_unique<mab::Ucb>(
                                  config.num_arms, common::Xoshiro256StarStar(2));
                            }),
               std::invalid_argument);
  EXPECT_TRUE(registry.remove(name));
  EXPECT_FALSE(registry.remove(name));
}

TEST(FuzzerRegistryTest, EveryBuiltinPolicyNameBuildsACampaign) {
  std::vector<std::string_view> policies(kAllPolicies.begin(),
                                         kAllPolicies.end());
  policies.push_back("random");
  policies.push_back("reuse");
  for (const std::string_view policy : policies) {
    Campaign campaign(tiny(std::string(policy), 5));
    campaign.run();
    EXPECT_EQ(campaign.tests_executed(), 5u) << policy;
    if (mab::BanditRegistry::instance().contains(policy)) {
      EXPECT_EQ(campaign.fuzzer().name(), "MABFuzz:" + std::string(policy));
    }
  }
}

TEST(FuzzerRegistryTest, UnknownPolicyThrowsFromCampaignConstruction) {
  // "eps" is no alias of epsilon-greedy: it is as unknown as any typo.
  for (const std::string name : {"definitely-not-registered", "eps"}) {
    try {
      Campaign campaign(tiny(name));
      FAIL() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'" + name + "'"), std::string::npos);
      EXPECT_NE(message.find("thehuzz"), std::string::npos);   // fuzzer names
      EXPECT_NE(message.find("thompson"), std::string::npos);  // bandit names
    }
  }
  CampaignConfig reuse = tiny("reuse");
  reuse.policy.reuse_bandit = "eps";
  EXPECT_THROW({ Campaign campaign(reuse); }, std::invalid_argument);
}

TEST(FuzzerRegistryTest, CustomBanditBecomesAFuzzerInOneCall) {
  mab::BanditRegistry::instance().add(
      "test-greedy", [](const mab::BanditConfig& config) {
        return std::make_unique<mab::Ucb>(
            config.num_arms,
            common::make_stream(config.rng_seed, 0, "test-greedy"));
      });

  Campaign campaign(tiny("test-greedy", 30));
  campaign.run();
  EXPECT_EQ(campaign.fuzzer().name(), "MABFuzz:ucb");  // the factory's bandit
  EXPECT_EQ(campaign.tests_executed(), 30u);
  EXPECT_GT(campaign.covered(), 0u);

  EXPECT_TRUE(mab::BanditRegistry::instance().remove("test-greedy"));
}

// --- config parsing -------------------------------------------------------------

TEST(CampaignConfigTest, ParsesKeyValuePairs) {
  const std::vector<std::string> pairs = {
      "fuzzer=exp3", "core=cva6",    "bugs=V1,V5",  "tests=1234",
      "seed=9",      "arms=7",       "epsilon=0.2", "eta=0.05",
      "alpha=0.5",   "gamma=4",      "mutants=3",   "adaptive-ops=true",
  };
  const CampaignConfig config = CampaignConfig::from_pairs(pairs);
  EXPECT_EQ(config.fuzzer, "exp3");
  EXPECT_EQ(config.core, soc::CoreKind::kCva6);
  EXPECT_TRUE(config.bugs.enabled(soc::BugId::kV1FenceIDecode));
  EXPECT_TRUE(config.bugs.enabled(soc::BugId::kV5SilentLoadFault));
  EXPECT_FALSE(config.bugs.enabled(soc::BugId::kV2IllegalOpExec));
  EXPECT_EQ(config.max_tests, 1234u);
  EXPECT_EQ(config.rng_seed, 9u);
  EXPECT_EQ(config.policy.bandit.num_arms, 7u);
  EXPECT_DOUBLE_EQ(config.policy.bandit.epsilon, 0.2);
  EXPECT_DOUBLE_EQ(config.policy.bandit.eta, 0.05);
  EXPECT_DOUBLE_EQ(config.policy.alpha, 0.5);
  EXPECT_EQ(config.policy.gamma, 4u);
  EXPECT_EQ(config.policy.mutants_per_interesting, 3u);
  EXPECT_TRUE(config.policy.adaptive_operators);
}

TEST(CampaignConfigTest, DefaultBugSetResolvesAgainstFinalCore) {
  // "bugs=default" is core-relative: from_pairs applies it last so it
  // resolves against the requested core regardless of key order, and
  // from_args resolves it against the caller-supplied base defaults.
  const std::vector<std::string> bugs_then_core = {"bugs=default", "core=cva6"};
  const std::vector<std::string> core_then_bugs = {"core=cva6", "bugs=default"};
  const CampaignConfig bugs_first = CampaignConfig::from_pairs(bugs_then_core);
  const CampaignConfig core_first = CampaignConfig::from_pairs(core_then_bugs);
  EXPECT_EQ(bugs_first.bugs, core_first.bugs);
  EXPECT_TRUE(bugs_first.bugs.enabled(soc::BugId::kV1FenceIDecode));  // CVA6's V1
  EXPECT_FALSE(bugs_first.bugs.enabled(soc::BugId::kV7EbreakInstret));

  const std::vector<std::string> bugs_only = {"bugs=default"};
  CampaignConfig base;
  base.core = soc::CoreKind::kCva6;
  EXPECT_EQ(CampaignConfig::from_pairs(bugs_only, base).bugs, bugs_first.bugs);

  // A direct assignment after parsing is final — nothing resurrects the
  // parsed spec behind the caller's back.
  CampaignConfig cleared = bugs_first;
  cleared.bugs = soc::BugSet::none();
  Campaign campaign(cleared);
  EXPECT_EQ(campaign.enabled_bug_count(), 0u);
}

TEST(CampaignConfigTest, UnknownKeyListsKnownKeys) {
  CampaignConfig config;
  try {
    config.set("no-such-knob", "1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-knob"), std::string::npos);
    EXPECT_NE(message.find("fuzzer"), std::string::npos);
    EXPECT_NE(message.find("epsilon"), std::string::npos);
  }
}

TEST(CampaignConfigTest, RejectsMalformedValues) {
  CampaignConfig config;
  EXPECT_THROW(config.set("tests", "many"), std::invalid_argument);
  EXPECT_THROW(config.set("epsilon", "often"), std::invalid_argument);
  EXPECT_THROW(config.set("core", "pentium"), std::invalid_argument);
  EXPECT_THROW(config.set("bugs", "V9"), std::invalid_argument);
  EXPECT_THROW(config.set("arms", "0"), std::invalid_argument);
  EXPECT_THROW(CampaignConfig::from_pairs({{"tests"}}), std::invalid_argument);
  // Count keys whose cost grows with the value refuse anything above their
  // cap, naming the key and the cap (32-bit values are never wrapped).
  const auto expect_capped = [&](const char* key, const std::string& value,
                                 const char* cap) {
    try {
      config.set(key, value);
      ADD_FAILURE() << key << "=" << value.substr(0, 40) << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(std::string("cap ") + cap),
                std::string::npos)
          << e.what();
    }
  };
  expect_capped("arms", "1025", "1024");
  expect_capped("arms", "20000", "1024");
  expect_capped("mutants", "1025", "1024");
  expect_capped("mutants", "2000000", "1024");
  expect_capped("mutants", "4294967296", "1024");
  expect_capped("initial-seeds", "4097", "4096");
  expect_capped("initial-seeds", "4294967297", "4096");
  expect_capped("length-choices", "4,4097", "4096");
  expect_capped("length-choices", "4,4294967308", "4096");
  expect_capped("length-choices", lengths(65), "64");
  expect_capped("length-choices", lengths(2'000'000), "64");
  // A zero or repeated length is refused, naming the key: the length
  // policy could never credit that arm, so its bonus would win forever.
  for (const char* value : {"0,20", "20,20"}) {
    try {
      config.set("length-choices", value);
      ADD_FAILURE() << "length-choices=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("length-choices"), std::string::npos)
          << e.what();
    }
  }
  // The caps themselves are accepted.
  config.set("arms", "1024");
  EXPECT_EQ(config.policy.bandit.num_arms, 1024u);
  config.set("mutants", "1024");
  EXPECT_EQ(config.policy.mutants_per_interesting, 1024u);
  config.set("initial-seeds", "4096");
  EXPECT_EQ(config.policy.thehuzz.initial_seeds, 4096u);
  config.set("length-choices", lengths(64));
  EXPECT_EQ(config.policy.length_choices, distinct_lengths(64));
  config.set("length-choices", "20");
  config.set("length-choices", lengths(64) + ",");  // trailing comma
  EXPECT_EQ(config.policy.length_choices, distinct_lengths(64));
  // A corpus-cap the corpus loader would refuse is refused up front, naming
  // the key and the bound; the bound itself is accepted.
  try {
    config.set("corpus-cap", "2000000");
    ADD_FAILURE() << "corpus-cap 2000000 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("corpus-cap"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("1048576"), std::string::npos) << e.what();
  }
  config.set("corpus-cap", "1048576");
  EXPECT_EQ(config.policy.corpus_cap, fuzz::Corpus::kMaxEntries);
  // Rates must be finite and in [0, 1]; the error names the key.
  for (const char* key : {"epsilon", "eta", "alpha", "adaptive-op-epsilon"}) {
    for (const char* value :
         {"nan", "inf", "-inf", "1e308", "-1e300", "-0.5", "1.0001"}) {
      try {
        config.set(key, value);
        ADD_FAILURE() << key << "=" << value << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                  std::string::npos)
            << e.what();
      }
    }
    config.set(key, "0");
    config.set(key, "1");
  }
  EXPECT_DOUBLE_EQ(config.policy.alpha, 1.0);
}

TEST(CampaignConfigTest, RefusesMoreSnapshotsThanACheckpointHolds) {
  // ceil(tests / snapshot-every) snapshots: exactly the bound constructs.
  CampaignConfig config = tiny("random");
  config.snapshot_every = 1;
  config.max_tests = kMaxSnapshots;
  { Campaign at_bound(config); }
  config.snapshot_every = 2;
  config.max_tests = 2 * kMaxSnapshots;
  { Campaign at_bound(config); }
  // One more is refused before anything runs, naming both keys.
  for (const auto& [tests, every] :
       {std::pair{kMaxSnapshots + 1, std::uint64_t{1}},
        std::pair{2 * kMaxSnapshots + 1, std::uint64_t{2}}}) {
    config.max_tests = tests;
    config.snapshot_every = every;
    try {
      Campaign campaign(config);
      ADD_FAILURE() << tests << " tests at snapshot-every=" << every
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("'tests'"), std::string::npos) << message;
      EXPECT_NE(message.find("'snapshot-every'"), std::string::npos) << message;
    }
  }
}

TEST(CampaignConfigTest, CapValuesBuildAndRun) {
  // Every capped key at its cap: 64 distinct length choices, one of them
  // at the length cap.
  for (const char* fuzzer : {"thehuzz", "ucb"}) {
    const std::vector<std::string> pairs = {
        std::string("fuzzer=") + fuzzer, "core=rocket", "tests=20",
        "arms=1024", "mutants=1024", "initial-seeds=4096",
        "adaptive-length=true", "length-choices=" + lengths(64)};
    Campaign campaign(CampaignConfig::from_pairs(pairs));
    EXPECT_EQ(campaign.run().tests_executed, 20u) << fuzzer;
  }
}

TEST(CampaignConfigTest, ToPairsRoundTripsEveryFieldByteForByte) {
  CampaignConfig config;
  config.fuzzer = "epsilon-greedy";
  config.core = soc::CoreKind::kBoom;
  config.bugs.enable(soc::BugId::kV2IllegalOpExec);
  config.bugs.enable(soc::BugId::kV5SilentLoadFault);
  config.bugs.enable(soc::BugId::kV7EbreakInstret);
  config.max_tests = 12'345;
  config.rng_seed = 0xDEADBEEFu;
  config.snapshot_every = 7;
  config.corpus_out = "/tmp/some store with spaces.bin";
  config.policy.alpha = 0.3333333333333333;  // not exactly representable
  config.policy.bandit.epsilon = 0.05;
  config.policy.bandit.eta = 1e-9;
  config.policy.gamma = 8;
  config.policy.arm_pool_cap = 32;
  config.policy.length_choices = {3, 17, 255};

  const std::vector<std::string> pairs = config.to_pairs();
  const CampaignConfig reparsed = CampaignConfig::from_pairs(pairs);
  EXPECT_EQ(reparsed.to_pairs(), pairs);
  EXPECT_EQ(reparsed.fuzzer, config.fuzzer);
  EXPECT_EQ(reparsed.bugs, config.bugs);
  EXPECT_EQ(reparsed.corpus_out, config.corpus_out);
  EXPECT_EQ(reparsed.policy.alpha, config.policy.alpha);  // exact, not near
  EXPECT_EQ(reparsed.policy.bandit.eta, config.policy.bandit.eta);
  EXPECT_EQ(reparsed.policy.length_choices, config.policy.length_choices);

  // The default config round-trips too (every key has a formatter).
  const CampaignConfig fresh;
  EXPECT_EQ(CampaignConfig::from_pairs(fresh.to_pairs()).to_pairs(),
            fresh.to_pairs());
}

TEST(CampaignConfigTest, RandomKeySoupNeverCrashesTheParser) {
  // Property test: set()/from_pairs() on arbitrary byte soup either
  // succeeds or throws std::invalid_argument — never anything else.
  common::Xoshiro256StarStar rng(common::derive_seed(2024, 0, "key-soup"));
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz-=0123456789.,+ \t_\"\\V";
  auto soup = [&](std::size_t max_len) {
    std::string out;
    const std::size_t len = rng.next_index(max_len + 1);
    for (std::size_t i = 0; i < len; ++i) {
      out += alphabet[rng.next_index(alphabet.size())];
    }
    return out;
  };
  std::vector<std::string> known_keys;
  for (const char* key :
       {"fuzzer", "core", "bugs", "tests", "seed", "epsilon", "eta", "alpha",
        "arms", "gamma", "pool-cap", "length-choices"}) {
    known_keys.push_back(key);
  }
  std::size_t accepted = 0;
  for (int trial = 0; trial < 2'000; ++trial) {
    CampaignConfig config;
    // Half the time aim garbage values at a real key; otherwise full soup.
    const std::string key = rng.next_bool(0.5)
                                ? known_keys[rng.next_index(known_keys.size())]
                                : soup(12);
    const std::string value = soup(16);
    try {
      config.set(key, value);
      ++accepted;
    } catch (const std::invalid_argument&) {
      // The only acceptable failure mode.
    }
    const std::vector<std::string> pairs{key + "=" + value, soup(24)};
    try {
      CampaignConfig::from_pairs(pairs);
      ++accepted;
    } catch (const std::invalid_argument&) {
    }
  }
  // The soup must occasionally hit valid settings, or the test is vacuous.
  EXPECT_GT(accepted, 0u);
}

TEST(CampaignConfigTest, DefaultsMatchPaperSectionIVA) {
  const CampaignConfig config;
  EXPECT_EQ(config.policy.bandit.num_arms, 10u);     // N = 10 arms
  EXPECT_DOUBLE_EQ(config.policy.bandit.epsilon, 0.1);
  EXPECT_DOUBLE_EQ(config.policy.bandit.eta, 0.1);
  EXPECT_DOUBLE_EQ(config.policy.alpha, 0.25);       // reward mix
  EXPECT_EQ(config.policy.gamma, 3u);                // reset threshold
  EXPECT_EQ(config.policy.mutants_per_interesting, 5u);
}

// --- StepResult::arm disambiguation ---------------------------------------------

TEST(StepResultArm, EngagedOnlyForArmSelectingPolicies) {
  Campaign mab_campaign(tiny("ucb", 5));
  for (int i = 0; i < 5; ++i) {
    const fuzz::StepResult r = mab_campaign.step();
    ASSERT_TRUE(r.has_arm());
    EXPECT_LT(*r.arm, 10u);
  }
  Campaign huzz_campaign(tiny("thehuzz", 5));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(huzz_campaign.step().has_arm());
  }
}

// --- stop conditions ------------------------------------------------------------

TEST(StopConditions, MaxTestsStopsExactly) {
  Campaign campaign(tiny("ucb"));
  const RunResult result = campaign.run_until(StopCondition::max_tests(37));
  EXPECT_EQ(result.reason, StopReason::kMaxTests);
  EXPECT_EQ(result.tests_executed, 37u);
  EXPECT_EQ(campaign.tests_executed(), 37u);
}

TEST(StopConditions, RunsAccumulateAcrossCalls) {
  Campaign campaign(tiny("ucb"));
  campaign.run_until(StopCondition::max_tests(20));
  const RunResult result = campaign.run_until(StopCondition::max_tests(50));
  EXPECT_EQ(result.tests_executed, 50u);
  // An already-satisfied condition executes zero further tests.
  const RunResult again = campaign.run_until(StopCondition::max_tests(50));
  EXPECT_EQ(again.tests_executed, 50u);
}

TEST(StopConditions, BugDetectionTakesPrecedenceOverMaxTests) {
  CampaignConfig config = tiny("thehuzz", 500);
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::single(soc::BugId::kV5SilentLoadFault);

  // Find the deterministic detection test index first.
  std::uint64_t detection_test = 0;
  {
    Campaign probe(config);
    const RunResult r = probe.run_until(StopCondition::bug_detected(
        soc::BugId::kV5SilentLoadFault, config.max_tests));
    ASSERT_EQ(r.reason, StopReason::kBugDetected);
    detection_test = r.tests_executed;
    ASSERT_GT(detection_test, 0u);
    EXPECT_EQ(probe.detected_bug_count(), 1u);
    EXPECT_EQ(probe.first_detection_test(soc::BugId::kV5SilentLoadFault),
              detection_test);
  }

  // Same seed, with the cap set to the detection test: both hold at the
  // same step, and the detection names the reason.
  {
    Campaign campaign(config);
    const RunResult r = campaign.run_until(StopCondition::bug_detected(
        soc::BugId::kV5SilentLoadFault, detection_test));
    EXPECT_EQ(r.reason, StopReason::kBugDetected);
    EXPECT_EQ(r.tests_executed, detection_test);
  }
  // A cap one test short of the detection stops at the cap.
  {
    Campaign campaign(config);
    const RunResult r = campaign.run_until(StopCondition::bug_detected(
        soc::BugId::kV5SilentLoadFault, detection_test - 1));
    EXPECT_EQ(r.reason, StopReason::kMaxTests);
    EXPECT_EQ(r.tests_executed, detection_test - 1);
    EXPECT_EQ(campaign.detected_bug_count(), 0u);
  }
}

// --- observers ------------------------------------------------------------------

struct RecordingObserver final : CampaignObserver {
  std::vector<std::uint64_t> steps;  // test_index of each on_step
  std::vector<std::uint64_t> batches;  // tests_executed of each on_batch

  void on_step(const Campaign& campaign,
               const fuzz::StepResult& step) override {
    // steps_ is already incremented when on_step fires.
    EXPECT_EQ(campaign.tests_executed(), step.test_index);
    steps.push_back(step.test_index);
  }
  void on_batch(const Campaign&, const BatchSnapshot& snapshot) override {
    batches.push_back(snapshot.tests_executed);
  }
};

TEST(Observers, OneStepPerTestAndOneBatchPerSnapshot) {
  CampaignConfig config = tiny("ucb", 45);
  config.snapshot_every = 10;
  Campaign campaign(config);
  RecordingObserver recorder;
  campaign.add_observer(recorder);
  campaign.run();

  std::vector<std::uint64_t> expected_steps(45);
  std::iota(expected_steps.begin(), expected_steps.end(), 1);
  EXPECT_EQ(recorder.steps, expected_steps);
  // Every 10 tests, plus the unaligned final sample at stop.
  EXPECT_EQ(recorder.batches, (std::vector<std::uint64_t>{10, 20, 30, 40, 45}));
}

TEST(Observers, SnapshotsFeedCurves) {
  CampaignConfig config = tiny("ucb", 50);
  config.snapshot_every = 20;
  Campaign campaign(config);
  campaign.run();
  // 20, 40, and the unaligned final sample at 50.
  ASSERT_EQ(campaign.snapshots().size(), 3u);
  EXPECT_EQ(campaign.snapshots()[0].tests_executed, 20u);
  EXPECT_EQ(campaign.snapshots()[1].tests_executed, 40u);
  EXPECT_EQ(campaign.snapshots()[2].tests_executed, 50u);
  const CoverageCurve curve = curve_from_snapshots(campaign.snapshots());
  EXPECT_EQ(curve.grid.back(), 50u);
  EXPECT_DOUBLE_EQ(curve.final_covered,
                   static_cast<double>(campaign.covered()));
}

// --- determinism: batched driver ≡ hand-rolled step loop -------------------------

struct Trace {
  std::vector<std::size_t> arms;
  std::vector<std::size_t> new_points;
  std::vector<bool> mismatches;
  std::size_t covered = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

class BatchedDriverDeterminism
    : public ::testing::TestWithParam<std::string_view> {};

TEST_P(BatchedDriverDeterminism, RunUntilMatchesManualStepLoop) {
  constexpr std::uint64_t kTests = 200;
  constexpr std::uint64_t kSeed = 77;

  CampaignConfig config;
  config.fuzzer = std::string(GetParam());
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::default_bugs(soc::CoreKind::kCva6);
  config.max_tests = kTests;
  config.rng_seed = kSeed;
  config.snapshot_every = 50;

  // The hand-rolled loop: step() by hand, sample coverage manually.
  Trace manual_trace;
  std::vector<double> manual_curve;
  {
    Campaign campaign(config);
    for (std::uint64_t t = 1; t <= kTests; ++t) {
      const fuzz::StepResult r = campaign.step();
      manual_trace.arms.push_back(r.arm.value_or(SIZE_MAX));
      manual_trace.new_points.push_back(r.new_global_points);
      manual_trace.mismatches.push_back(r.mismatch);
      if (t % 50 == 0) {
        manual_curve.push_back(static_cast<double>(campaign.covered()));
      }
    }
    manual_trace.covered = campaign.covered();
  }

  // The batched driver, snapshots and stop evaluation and all.
  Trace driver_trace;
  struct Tracer final : CampaignObserver {
    Trace* trace;
    void on_step(const Campaign&, const fuzz::StepResult& r) override {
      trace->arms.push_back(r.arm.value_or(SIZE_MAX));
      trace->new_points.push_back(r.new_global_points);
      trace->mismatches.push_back(r.mismatch);
    }
  } tracer;
  tracer.trace = &driver_trace;
  Campaign campaign(config);
  campaign.add_observer(tracer);
  campaign.run();
  driver_trace.covered = campaign.covered();

  EXPECT_EQ(driver_trace, manual_trace)
      << "batched driver perturbed the run for " << GetParam();
  const CoverageCurve curve = curve_from_snapshots(campaign.snapshots());
  ASSERT_EQ(curve.covered.size(), manual_curve.size());
  EXPECT_EQ(curve.covered, manual_curve);
}

INSTANTIATE_TEST_SUITE_P(Policies, BatchedDriverDeterminism,
                         ::testing::Values("thehuzz", "ucb", "exp3"),
                         [](const ::testing::TestParamInfo<std::string_view>& param_info) {
                           std::string out;
                           for (const char c : param_info.param) {
                             if (c != '-') {
                               out += c;
                             }
                           }
                           return out;
                         });

}  // namespace
}  // namespace mabfuzz::harness
