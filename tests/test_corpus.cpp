// Corpus subsystem tests: novelty-gated admission, lowest-novelty
// eviction, deterministic mabfuzz-corpus-v2 serialization (save → load →
// byte-identical re-save, corrupt and trailing bytes refused, an
// interrupted save keeping the previous store), federation
// (order-invariant merge, set-cover distillation, sharded trial-matrix
// corpus_out), campaign-level corpus plumbing (corpus-in validation,
// fail-fast corpus-out, byte-identical warm-campaign continuation) and
// the corpus-reuse fuzzer built on top.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "fuzz/backend.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/registry.hpp"
#include "fuzz/reuse_fuzzer.hpp"
#include "harness/campaign.hpp"
#include "harness/experiment.hpp"
#include "mab/registry.hpp"
#include "soc/cores.hpp"

namespace mabfuzz {
namespace {

using fuzz::Corpus;
using fuzz::CorpusEntry;
using fuzz::TestCase;

// --- admission / eviction -------------------------------------------------------

TestCase make_test(std::uint64_t id) {
  TestCase t;
  t.id = id;
  t.seed_id = id;
  t.words = {0x13};  // nop
  return t;
}

coverage::Map map_with(std::size_t universe,
                       std::initializer_list<coverage::PointId> points) {
  coverage::Map map(universe);
  for (const coverage::PointId p : points) {
    map.set(p);
  }
  return map;
}

TEST(Corpus, AdmitsOnlyNovelCoverage) {
  Corpus corpus("rocket", 128, 8);
  EXPECT_TRUE(corpus.offer(make_test(1), map_with(128, {0, 1, 2})));
  // Same points again: nothing new over the accumulated map.
  EXPECT_FALSE(corpus.offer(make_test(2), map_with(128, {0, 1, 2})));
  EXPECT_FALSE(corpus.offer(make_test(3), map_with(128, {2})));
  // One fresh point suffices.
  EXPECT_TRUE(corpus.offer(make_test(4), map_with(128, {2, 3})));
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.admitted(), 2u);
  EXPECT_EQ(corpus.rejected(), 2u);
  EXPECT_EQ(corpus.covered(), 4u);
}

TEST(Corpus, NoveltyIsAdmissionTimeDelta) {
  Corpus corpus("rocket", 128, 8);
  ASSERT_TRUE(corpus.offer(make_test(1), map_with(128, {0, 1, 2})));
  ASSERT_TRUE(corpus.offer(make_test(2), map_with(128, {1, 2, 3, 4})));
  EXPECT_EQ(corpus.entries()[0].novelty, 3u);
  EXPECT_EQ(corpus.entries()[1].novelty, 2u);  // 3 and 4 were new, 1/2 not
}

TEST(Corpus, EvictsLowestNoveltyNotOldest) {
  Corpus corpus("rocket", 128, 2);
  ASSERT_TRUE(corpus.offer(make_test(1), map_with(128, {0, 1, 2, 3})));  // novelty 4
  ASSERT_TRUE(corpus.offer(make_test(2), map_with(128, {4})));           // novelty 1
  // Full. A FIFO would drop test 1 (oldest); the novelty gate drops test 2.
  ASSERT_TRUE(corpus.offer(make_test(3), map_with(128, {5, 6})));        // novelty 2
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.entries()[0].test.id, 1u);
  EXPECT_EQ(corpus.entries()[1].test.id, 3u);
  EXPECT_EQ(corpus.evicted(), 1u);
  // Eviction removes the test, not its accumulated contribution: point 4
  // stays known, so re-offering it is rejected.
  EXPECT_FALSE(corpus.offer(make_test(4), map_with(128, {4})));
  EXPECT_EQ(corpus.covered(), 7u);
}

TEST(Corpus, EvictionTieBreaksOldestFirst) {
  Corpus corpus("rocket", 128, 2);
  ASSERT_TRUE(corpus.offer(make_test(1), map_with(128, {0})));  // novelty 1, order 0
  ASSERT_TRUE(corpus.offer(make_test(2), map_with(128, {1})));  // novelty 1, order 1
  ASSERT_TRUE(corpus.offer(make_test(3), map_with(128, {2})));  // evicts id 1
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.entries()[0].test.id, 2u);
  EXPECT_EQ(corpus.entries()[1].test.id, 3u);
}

TEST(Corpus, ZeroCapClampsToOne) {
  Corpus corpus("rocket", 128, 0);
  EXPECT_EQ(corpus.max_entries(), 1u);
  EXPECT_TRUE(corpus.offer(make_test(1), map_with(128, {0})));
  EXPECT_TRUE(corpus.offer(make_test(2), map_with(128, {1})));
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.evicted(), 1u);
}

// --- serialization --------------------------------------------------------------

/// A corpus populated with real backend-executed tests (realistic word
/// payloads, mutation_ops, coverage maps). Different seeds grow different
/// stores — the raw material for the federation tests.
Corpus executed_corpus(std::size_t tests = 40, std::size_t cap = 16,
                       std::uint64_t seed = 1) {
  fuzz::BackendConfig config;
  config.core = soc::CoreKind::kRocket;
  config.bugs = soc::BugSet::none();
  config.rng_seed = seed;
  fuzz::Backend backend(config);
  Corpus corpus(std::string(soc::core_name(config.core)),
                backend.coverage_universe(), cap);
  TestCase parent = backend.make_seed();
  for (std::size_t i = 0; i < tests; ++i) {
    const TestCase test = i % 3 == 0 ? backend.make_seed()
                                     : backend.make_mutant(parent);
    if (corpus.offer(test, backend.run_test(test).dut.test_coverage) &&
        !test.is_seed()) {
      parent = test;
    }
  }
  return corpus;
}

TEST(CorpusSerialization, RoundTripPreservesEverything) {
  const Corpus original = executed_corpus();
  ASSERT_GT(original.size(), 0u);
  ASSERT_GT(original.covered(), 0u);

  const Corpus reloaded = Corpus::from_image(original.image());
  EXPECT_TRUE(reloaded == original);
  EXPECT_EQ(reloaded.core(), "rocket");
  EXPECT_EQ(reloaded.universe(), original.universe());
  EXPECT_EQ(reloaded.covered(), original.covered());
  // Mutant provenance survives (words + ops, not just metadata).
  bool saw_mutant = false;
  for (const CorpusEntry& entry : reloaded.entries()) {
    if (!entry.test.is_seed()) {
      saw_mutant = true;
      EXPECT_FALSE(entry.test.mutation_ops.empty());
    }
    EXPECT_FALSE(entry.test.words.empty());
  }
  EXPECT_TRUE(saw_mutant);
}

TEST(CorpusSerialization, ReSaveIsByteIdentical) {
  const Corpus original = executed_corpus();
  const std::string first = original.image();
  EXPECT_EQ(Corpus::from_image(first).image(), first);
  // The stream writer is the same image.
  std::ostringstream streamed;
  original.save(streamed);
  EXPECT_EQ(streamed.str(), first);
}

TEST(CorpusSerialization, ContinuationAfterReloadMatchesUninterrupted) {
  // Admissions into a reloaded corpus behave exactly as if the campaign
  // had never stopped: same gate decisions, same eviction victims.
  Corpus live = executed_corpus(/*tests=*/25);
  Corpus reloaded = Corpus::from_image(live.image());

  const std::size_t universe = live.universe();
  for (std::uint64_t id = 1000; id < 1012; ++id) {
    const auto map = map_with(universe, {static_cast<coverage::PointId>(id),
                                         static_cast<coverage::PointId>(id % 7)});
    EXPECT_EQ(live.offer(make_test(id), map), reloaded.offer(make_test(id), map));
  }
  EXPECT_TRUE(live == reloaded);
}

TEST(CorpusSerialization, ManifestListsEntries) {
  const Corpus corpus = executed_corpus();
  std::ostringstream os;
  corpus.write_manifest(os);
  const std::string manifest = os.str();
  EXPECT_NE(manifest.find("\"schema\": \"mabfuzz-corpus-v2\""), std::string::npos);
  EXPECT_NE(manifest.find("\"core\": \"rocket\""), std::string::npos);
  EXPECT_NE(manifest.find("\"novelty\""), std::string::npos);
}

TEST(CorpusSerialization, LoadRejectsCorruptInput) {
  // Not a corpus at all.
  EXPECT_THROW((void)Corpus::from_image("definitely not a corpus"),
               std::runtime_error);

  const Corpus corpus = executed_corpus();
  const std::string image = corpus.image();

  // Truncation anywhere fails loudly instead of yielding a partial store.
  EXPECT_THROW((void)Corpus::from_image(image.substr(0, image.size() / 2)),
               std::runtime_error);

  // Unsupported version.
  std::string versioned = image;
  versioned[8] = 0x7f;  // version field follows the 8-byte magic
  EXPECT_THROW((void)Corpus::from_image(versioned), std::runtime_error);

  EXPECT_THROW((void)Corpus::from_image(""), std::runtime_error);

  // A corrupt universe field must fail the sanity bound, not attempt a
  // petabyte coverage-map allocation. The field sits after the 8-byte
  // magic, u32 version and length-prefixed core name ("rocket").
  std::string huge_universe = image;
  const std::size_t universe_offset = 8 + 4 + 4 + std::string("rocket").size();
  for (std::size_t i = 0; i < 8; ++i) {
    huge_universe[universe_offset + i] = '\xff';
  }
  EXPECT_THROW((void)Corpus::from_image(huge_universe), std::runtime_error);

  // One byte after the accumulated map: not a store this code wrote.
  try {
    (void)Corpus::from_image(image + '\0');
    FAIL() << "an image with a trailing byte loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"), std::string::npos)
        << e.what();
  }
}

TEST(CorpusSerialization, InterruptedSaveKeepsThePreviousStore) {
  // The file-size limit makes the save fail part-way through the binary:
  // the store written before must still load, equal to what it was.
  const Corpus original = executed_corpus(/*tests=*/10, /*cap=*/8);
  const Corpus bigger = executed_corpus(/*tests=*/60, /*cap=*/32, /*seed=*/3);
  const std::string path = testing::TempDir() + "corpus_interrupted.bin";
  original.save(path);
  const std::size_t limit = bigger.image().size() / 2;
  ASSERT_GT(limit, 0u);

  // SIGXFSZ would kill the process; ignored, the write fails with EFBIG.
  const auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = limit;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &lowered), 0);
  bool threw = false;
  try {
    bigger.save(path);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, previous_handler);

  EXPECT_TRUE(threw) << "a save past the file-size limit reported success";
  EXPECT_TRUE(Corpus::load(path) == original);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST(CorpusSerialization, FileSaveWritesBinaryAndManifest) {
  const Corpus corpus = executed_corpus();
  const std::string path = testing::TempDir() + "corpus_file_roundtrip.bin";
  corpus.save(path);
  const Corpus reloaded = Corpus::load(path);
  EXPECT_TRUE(reloaded == corpus);
  std::ifstream manifest(path + ".json");
  ASSERT_TRUE(manifest.good());
  std::string first_line;
  std::getline(manifest, first_line);
  EXPECT_EQ(first_line, "{");
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
  EXPECT_THROW((void)Corpus::load(path), std::runtime_error);
}

TEST(CorpusSerialization, LoadClampsStoredZeroCap) {
  // A hand-edited (or foreign-tool) file carrying max_entries=0 describes
  // a corpus the constructor forbids; load clamps the stored cap to 1
  // instead of failing or trusting the constructor's incidental clamp.
  Corpus corpus("rocket", 128, 8);
  ASSERT_TRUE(corpus.offer(make_test(1), map_with(128, {0})));
  std::string image = corpus.image();
  // The u64 cap follows the magic, version, length-prefixed core name and
  // u64 universe.
  const std::size_t cap_offset = 8 + 4 + 4 + std::string("rocket").size() + 8;
  for (std::size_t i = 0; i < 8; ++i) {
    image[cap_offset + i] = '\0';
  }
  const Corpus reloaded = Corpus::from_image(image);
  EXPECT_EQ(reloaded.max_entries(), 1u);
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.entries()[0].test.id, 1u);
}

TEST(CorpusSerialization, FileErrorsIncludeOsReason) {
  // "cannot write/open '<path>'" alone cannot distinguish a full disk from
  // a misspelled directory; the OS reason must ride along.
  const Corpus corpus = executed_corpus(/*tests=*/10, /*cap=*/8);
  const std::string bad = testing::TempDir() + "no_such_dir_xyz/corpus.bin";
  try {
    corpus.save(bad);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(bad), std::string::npos);
    EXPECT_NE(message.find(std::strerror(ENOENT)), std::string::npos) << message;
  }
  try {
    (void)Corpus::load(bad);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(bad), std::string::npos);
    EXPECT_NE(message.find(std::strerror(ENOENT)), std::string::npos) << message;
  }
}

// --- federation: merge + distill ------------------------------------------------

TEST(CorpusMerge, MatchesCanonicalReOffer) {
  // merge(A,B) is *defined* as re-offering the union in canonical order
  // (novelty desc, then order, then content) into a fresh store; verify
  // the definition byte-for-byte against a hand-rolled re-offer.
  Corpus a("rocket", 128, 16);
  ASSERT_TRUE(a.offer(make_test(1), map_with(128, {0, 1, 2})));   // novelty 3
  ASSERT_TRUE(a.offer(make_test(2), map_with(128, {3})));         // novelty 1
  Corpus b("rocket", 128, 16);
  ASSERT_TRUE(b.offer(make_test(10), map_with(128, {1, 2, 4, 5})));  // novelty 4
  ASSERT_TRUE(b.offer(make_test(11), map_with(128, {6})));           // novelty 1

  std::vector<const CorpusEntry*> canonical;
  for (const CorpusEntry& entry : a.entries()) {
    canonical.push_back(&entry);
  }
  for (const CorpusEntry& entry : b.entries()) {
    canonical.push_back(&entry);
  }
  std::sort(canonical.begin(), canonical.end(),
            [](const CorpusEntry* x, const CorpusEntry* y) {
              if (x->novelty != y->novelty) {
                return x->novelty > y->novelty;
              }
              if (x->order != y->order) {
                return x->order < y->order;
              }
              return x->test.id < y->test.id;
            });
  Corpus expected("rocket", 128, 16);
  for (const CorpusEntry* entry : canonical) {
    expected.offer(entry->test, entry->map);
  }

  Corpus merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.image(), expected.image());
}

TEST(CorpusMerge, ArrivalOrderInvariantOnExecutedStores) {
  // Byte-identity of merge(A,B) vs merge(B,A) on realistic stores (full
  // coverage maps, evictions in play) — the property the sharded matrix
  // path relies on for worker-count independence.
  const Corpus a = executed_corpus(/*tests=*/40, /*cap=*/16, /*seed=*/1);
  const Corpus b = executed_corpus(/*tests=*/40, /*cap=*/16, /*seed=*/2);
  Corpus ab = a;
  ab.merge(b);
  Corpus ba = b;
  ba.merge(a);
  ASSERT_GT(ab.size(), 0u);
  EXPECT_EQ(ab.image(), ba.image());
}

TEST(CorpusMerge, RejectsCoreAndUniverseMismatch) {
  Corpus a("rocket", 128, 4);
  const Corpus wrong_core("cva6", 128, 4);
  const Corpus wrong_universe("rocket", 64, 4);
  EXPECT_THROW(a.merge(wrong_core), std::invalid_argument);
  EXPECT_THROW(a.merge(wrong_universe), std::invalid_argument);
}

TEST(CorpusMerge, PreservesRatchetAndWidensCap) {
  Corpus a("rocket", 128, 1);
  ASSERT_TRUE(a.offer(make_test(1), map_with(128, {0})));
  ASSERT_TRUE(a.offer(make_test(2), map_with(128, {1})));  // evicts test 1
  ASSERT_EQ(a.evicted(), 1u);
  Corpus b("rocket", 128, 4);
  ASSERT_TRUE(b.offer(make_test(3), map_with(128, {2})));

  a.merge(b);
  EXPECT_EQ(a.max_entries(), 4u);  // the larger of the two caps
  EXPECT_EQ(a.size(), 2u);         // tests 2 and 3; test 1 was gone pre-merge
  // The ratchet survives: point 0 (contributed by the evicted test 1)
  // still gates admission, and stays counted as covered.
  EXPECT_FALSE(a.offer(make_test(9), map_with(128, {0})));
  EXPECT_EQ(a.covered(), 3u);
}

TEST(CorpusMerge, SelfMergeRegatesWithoutCoverageLoss) {
  const Corpus a = executed_corpus(/*tests=*/30, /*cap=*/32);
  Corpus merged = a;
  merged.merge(a);  // every candidate arrives twice
  // Re-offering the union in canonical (novelty-desc) order re-gates it:
  // exact duplicates are rejected outright, and an entry whose map is
  // subsumed by higher-novelty survivors drops out even though it was
  // novel in its original chronological order. The store can only shrink;
  // the accumulated ratchet keeps every point.
  EXPECT_GT(merged.size(), 0u);
  EXPECT_LE(merged.size(), a.size());
  EXPECT_EQ(merged.covered(), a.covered());
  EXPECT_TRUE(merged.accumulated() == a.accumulated());
}

TEST(CorpusDistill, DropsDominatedEntriesDeterministically) {
  Corpus corpus("rocket", 128, 16);
  ASSERT_TRUE(corpus.offer(make_test(1), map_with(128, {0, 1})));
  ASSERT_TRUE(corpus.offer(make_test(2), map_with(128, {2, 3})));
  // Covers everything the first two did plus one point: the greedy cover
  // picks it alone.
  ASSERT_TRUE(corpus.offer(make_test(3), map_with(128, {0, 1, 2, 3, 4})));
  EXPECT_EQ(corpus.distill(), 2u);
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.entries()[0].test.id, 3u);
  EXPECT_EQ(corpus.evicted(), 2u);
}

TEST(CorpusDistill, PreservesAccumulatedMapExactly) {
  // cap > tests: no eviction, so the accumulated map equals the union of
  // the entry maps and the distilled survivors must reproduce it exactly.
  Corpus corpus = executed_corpus(/*tests=*/60, /*cap=*/64);
  const coverage::Map before = corpus.accumulated();
  const std::size_t before_size = corpus.size();
  const std::size_t removed = corpus.distill();
  EXPECT_TRUE(corpus.accumulated() == before);
  EXPECT_EQ(corpus.size() + removed, before_size);
  coverage::Map survivors(corpus.universe());
  for (const CorpusEntry& entry : corpus.entries()) {
    survivors.merge(entry.map);
  }
  EXPECT_TRUE(survivors == before);
  // Idempotent: a distilled store has no dominated entries left.
  EXPECT_EQ(corpus.distill(), 0u);
}

// --- campaign plumbing ----------------------------------------------------------

harness::CampaignConfig reuse_config(std::uint64_t tests = 150) {
  harness::CampaignConfig config;
  config.fuzzer = "reuse";
  config.core = soc::CoreKind::kRocket;
  config.bugs = soc::BugSet::none();
  config.max_tests = tests;
  config.rng_seed = 77;
  return config;
}

TEST(CorpusCampaign, CorpusOutBuildsAndSavesAStore) {
  const std::string path = testing::TempDir() + "campaign_corpus_out.bin";
  auto config = reuse_config();
  config.corpus_out = path;
  harness::Campaign campaign(config);
  ASSERT_NE(campaign.corpus(), nullptr);
  EXPECT_EQ(campaign.corpus_loaded_entries(), 0u);
  campaign.run();
  EXPECT_GT(campaign.corpus()->size(), 0u);
  ASSERT_TRUE(campaign.save_corpus());

  const Corpus saved = Corpus::load(path);
  EXPECT_TRUE(saved == *campaign.corpus());
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST(CorpusCampaign, NoCorpusConfiguredMeansNoSharedStore) {
  harness::Campaign campaign(reuse_config(/*tests=*/10));
  EXPECT_EQ(campaign.corpus(), nullptr);  // fuzzer keeps a private store
  EXPECT_FALSE(campaign.save_corpus());
  campaign.run();
}

TEST(CorpusCampaign, TheHuzzFeedsTheSharedCorpus) {
  const std::string path = testing::TempDir() + "thehuzz_corpus_out.bin";
  auto config = reuse_config();
  config.fuzzer = "thehuzz";
  config.corpus_out = path;
  harness::Campaign campaign(config);
  campaign.run();
  EXPECT_GT(campaign.corpus()->size(), 0u);
  ASSERT_TRUE(campaign.save_corpus());
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST(CorpusCampaign, RandomOffersEveryTestToTheSharedCorpus) {
  auto config = reuse_config();
  config.fuzzer = "random";
  config.corpus_out = testing::TempDir() + "random_corpus_out.bin";
  harness::Campaign campaign(config);
  campaign.run();
  const Corpus& corpus = *campaign.corpus();
  EXPECT_EQ(corpus.admitted() + corpus.rejected(), config.max_tests);
  EXPECT_GT(corpus.admitted(), 0u);
}

TEST(CorpusCampaign, CorpusInRejectsCoreMismatch) {
  const std::string path = testing::TempDir() + "core_mismatch_corpus.bin";
  executed_corpus().save(path);  // recorded on rocket

  auto config = reuse_config();
  config.core = soc::CoreKind::kCva6;
  config.corpus_in = path;
  try {
    harness::Campaign campaign(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("rocket"), std::string::npos);
    EXPECT_NE(message.find("cva6"), std::string::npos);
  }
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST(CorpusCampaign, MisspelledCorpusOutFailsAtConstruction) {
  // The write happens at end-of-run; a bad path must not cost a whole
  // campaign to discover.
  auto config = reuse_config(/*tests=*/10);
  config.corpus_out = testing::TempDir() + "no_such_dir_xyz/corpus.bin";
  EXPECT_THROW(harness::Campaign campaign(config), std::invalid_argument);

  // And the valid-path side: construction passes, the save lands.
  auto ok = reuse_config(/*tests=*/10);
  ok.corpus_out = testing::TempDir() + "fail_fast_ok_corpus.bin";
  harness::Campaign campaign(ok);
  campaign.run();
  ASSERT_TRUE(campaign.save_corpus());
  std::remove(ok.corpus_out.c_str());
  std::remove((ok.corpus_out + ".json").c_str());
}

TEST(CorpusCampaign, TrialMatrixShardsAndMergesCorpusOut) {
  // corpus_out in a matrix: each trial writes `<target>.shard-<index>`,
  // the engine folds the shards into `target` post-barrier, deletes them,
  // and the artifacts carry the shard provenance.
  const std::string path = testing::TempDir() + "matrix_federated_corpus.bin";
  harness::TrialMatrix matrix;
  matrix.base = reuse_config(/*tests=*/60);
  matrix.base.snapshot_every = 30;
  matrix.base.corpus_out = path;
  matrix.trials = 3;
  harness::ExperimentOptions options;
  options.workers = 2;
  const harness::Experiment experiment(matrix, options);
  for (const harness::TrialSpec& spec : experiment.specs()) {
    EXPECT_EQ(spec.corpus_merge_out, path);
    EXPECT_EQ(spec.config.corpus_out,
              path + ".shard-" + std::to_string(spec.index));
  }

  const harness::ExperimentResult result = experiment.run();
  ASSERT_EQ(result.failed_trials, 0u);
  EXPECT_EQ(result.trials[0].corpus_out, path + ".shard-0");
  EXPECT_GT(result.trials[0].corpus_out_entries, 0u);
  std::ostringstream csv;
  harness::write_trials_csv(csv, result);
  EXPECT_NE(csv.str().find("corpus_out"), std::string::npos);
  EXPECT_NE(csv.str().find(".shard-1"), std::string::npos);

  // The merged store is the one artifact; the shards are gone.
  const Corpus merged = Corpus::load(path);
  EXPECT_GT(merged.size(), 0u);
  EXPECT_EQ(merged.core(), "rocket");
  for (const harness::TrialSpec& spec : experiment.specs()) {
    std::ifstream shard(spec.config.corpus_out);
    EXPECT_FALSE(shard.good()) << spec.config.corpus_out << " not cleaned up";
  }

  // And it warm-starts a reuse campaign like any single-writer store.
  auto warm = reuse_config(/*tests=*/30);
  warm.corpus_in = path;
  harness::Campaign campaign(warm);
  EXPECT_EQ(campaign.corpus_loaded_entries(), merged.size());
  campaign.run();
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST(CorpusCampaign, TrialMatrixValidatesCorpusOutAtExpansion) {
  // Misspelled merge target: rejected before any trial burns its budget.
  harness::TrialMatrix bad;
  bad.base = reuse_config(/*tests=*/10);
  bad.base.corpus_out = testing::TempDir() + "no_such_dir_xyz/out.bin";
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);

  // Cells sharing a merge target must agree on the core — per-core stores
  // cannot fold together.
  harness::TrialMatrix mixed;
  mixed.base = reuse_config(/*tests=*/10);
  mixed.base.corpus_out = testing::TempDir() + "mixed_core_corpus.bin";
  mixed.variants = {{"rocket", {}}, {"cva6", {"core=cva6", "bugs=none"}}};
  EXPECT_THROW((void)mixed.expand(), std::invalid_argument);
}

TEST(CorpusCampaign, MissingCorpusInFailsLoudly) {
  auto config = reuse_config();
  config.corpus_in = testing::TempDir() + "does_not_exist_corpus.bin";
  EXPECT_THROW(harness::Campaign campaign(config), std::runtime_error);
}

TEST(CorpusCampaign, WarmContinuationIsByteIdenticalAcrossReloads) {
  // Save a corpus, then run the same warm campaign twice from it: the
  // continuations must replay bit-identically (coverage trace, corpus
  // contents, re-serialized image).
  const std::string path = testing::TempDir() + "warm_continuation_corpus.bin";
  {
    auto warmup = reuse_config(/*tests=*/200);
    warmup.corpus_out = path;
    harness::Campaign campaign(warmup);
    campaign.run();
    ASSERT_TRUE(campaign.save_corpus());
  }

  auto run_warm = [&] {
    auto config = reuse_config(/*tests=*/120);
    config.rng_seed = 99;
    config.corpus_in = path;
    harness::Campaign campaign(config);
    campaign.run();
    return std::pair<std::size_t, std::string>(campaign.covered(),
                                               campaign.corpus()->image());
  };
  const auto a = run_warm();
  const auto b = run_warm();
  EXPECT_GT(a.first, 0u);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

// --- the reuse fuzzer -----------------------------------------------------------

TEST(ReuseFuzzer, ColdStartStepsAndAccumulates) {
  fuzz::BackendConfig config;
  config.core = soc::CoreKind::kRocket;
  config.bugs = soc::BugSet::none();
  fuzz::Backend backend(config);
  auto corpus = std::make_shared<Corpus>("rocket", backend.coverage_universe(), 64);
  mab::BanditConfig bandit_config;
  bandit_config.num_arms = 4;
  fuzz::PolicyConfig policy;
  policy.corpus = corpus;
  policy.gamma = 3;
  fuzz::ReuseFuzzer fuzzer(backend, mab::make_bandit("thompson", bandit_config),
                           policy);
  EXPECT_EQ(fuzzer.name(), "Reuse:thompson");
  EXPECT_EQ(fuzzer.arms_from_corpus(), 0u);
  for (int i = 0; i < 80; ++i) {
    const fuzz::StepResult result = fuzzer.step();
    EXPECT_EQ(result.test_index, static_cast<std::uint64_t>(i + 1));
    EXPECT_TRUE(result.has_arm());
    EXPECT_LT(*result.arm, 4u);
  }
  EXPECT_GT(fuzzer.accumulated().covered(), 0u);
  // The cold start populated the store for the next campaign.
  EXPECT_GT(corpus->size(), 0u);
}

TEST(ReuseFuzzer, WarmStartSeedsArmsFromTheCorpus) {
  auto corpus = std::make_shared<Corpus>(executed_corpus(/*tests=*/60, /*cap=*/32));
  ASSERT_GE(corpus->size(), 4u);

  fuzz::BackendConfig config;
  config.core = soc::CoreKind::kRocket;
  config.bugs = soc::BugSet::none();
  fuzz::Backend backend(config);
  mab::BanditConfig bandit_config;
  bandit_config.num_arms = 4;
  fuzz::PolicyConfig policy;
  policy.corpus = corpus;
  policy.gamma = 3;
  fuzz::ReuseFuzzer fuzzer(backend, mab::make_bandit("thompson", bandit_config),
                           policy);
  EXPECT_EQ(fuzzer.arms_from_corpus(), 4u);

  // Arms are the highest-novelty corpus entries, best first.
  std::uint64_t previous = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t a = 0; a < fuzzer.num_arms(); ++a) {
    const TestCase& parent = fuzzer.arm_parent(a);
    std::uint64_t novelty = 0;
    bool found = false;
    for (const CorpusEntry& entry : corpus->entries()) {
      if (entry.test.id == parent.id) {
        novelty = entry.novelty;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "arm " << a << " parent not from the corpus";
    EXPECT_LE(novelty, previous);
    previous = novelty;
  }
  for (int i = 0; i < 40; ++i) {
    fuzzer.step();
  }
  EXPECT_GT(fuzzer.accumulated().covered(), 0u);
}

TEST(ReuseFuzzer, DetectsEasyBugEventually) {
  harness::CampaignConfig config = reuse_config(/*tests=*/800);
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::single(soc::BugId::kV5SilentLoadFault);
  harness::Campaign campaign(config);
  const harness::RunResult result = campaign.run_until(
      harness::StopCondition::bug_detected(soc::BugId::kV5SilentLoadFault,
                                           config.max_tests));
  EXPECT_EQ(result.reason, harness::StopReason::kBugDetected);
}

}  // namespace
}  // namespace mabfuzz
