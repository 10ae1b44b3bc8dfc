// Fuzzing-framework tests: pool FIFO semantics, seed generator legality,
// differential oracle on synthetic traces, the shared backend, and the
// TheHuzz baseline loop.

#include <gtest/gtest.h>

#include "fuzz/backend.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/pool.hpp"
#include "fuzz/seedgen.hpp"
#include "fuzz/test_case.hpp"
#include "fuzz/random_fuzzer.hpp"
#include "fuzz/registry.hpp"
#include "fuzz/thehuzz.hpp"
#include "isa/decoder.hpp"

namespace mabfuzz::fuzz {
namespace {

// --- TestPool ------------------------------------------------------------------

TestCase make_test(std::uint64_t id) {
  TestCase t;
  t.id = id;
  t.words = {0x13};  // nop
  return t;
}

TEST(Pool, FifoOrder) {
  TestPool pool;
  pool.push(make_test(1));
  pool.push(make_test(2));
  pool.push(make_test(3));
  EXPECT_EQ(pool.pop()->id, 1u);
  EXPECT_EQ(pool.pop()->id, 2u);
  EXPECT_EQ(pool.pop()->id, 3u);
  EXPECT_FALSE(pool.pop().has_value());
}

TEST(Pool, CapDropsOldest) {
  TestPool pool(2);
  pool.push(make_test(1));
  pool.push(make_test(2));
  pool.push(make_test(3));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.dropped(), 1u);
  EXPECT_EQ(pool.pop()->id, 2u);
}

TEST(Pool, ClearEmpties) {
  TestPool pool;
  pool.push(make_test(1));
  pool.clear();
  EXPECT_TRUE(pool.empty());
}

TEST(Pool, DroppedAccumulatesAcrossOverflows) {
  TestPool pool(2);
  for (std::uint64_t id = 1; id <= 7; ++id) {
    pool.push(make_test(id));
  }
  // 7 pushes into a 2-slot pool: 5 oldest dropped, newest 2 retained.
  EXPECT_EQ(pool.dropped(), 5u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.pop()->id, 6u);
  EXPECT_EQ(pool.pop()->id, 7u);
}

TEST(Pool, DroppedIsLifetimeNotOccupancy) {
  // dropped() is campaign-lifetime accounting: pops and clear() empty the
  // queue without erasing the history of cap-dropped tests.
  TestPool pool(2);
  pool.push(make_test(1));
  pool.push(make_test(2));
  pool.push(make_test(3));  // drops id 1
  EXPECT_EQ(pool.dropped(), 1u);
  (void)pool.pop();
  (void)pool.pop();
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.dropped(), 1u);  // pops are consumption, not drops
  pool.push(make_test(4));
  pool.clear();
  EXPECT_EQ(pool.dropped(), 1u);  // clear() discards tests, keeps history
  pool.push(make_test(5));
  pool.push(make_test(6));
  pool.push(make_test(7));
  EXPECT_EQ(pool.dropped(), 2u);
}

TEST(Pool, NoDropsBelowCap) {
  TestPool pool(8);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    pool.push(make_test(id));
  }
  EXPECT_EQ(pool.dropped(), 0u);
  EXPECT_EQ(pool.size(), 8u);
}

// --- SeedGenerator ----------------------------------------------------------------

TEST(SeedGen, ProgramsHaveConfiguredLength) {
  SeedGenConfig config;
  config.instructions_per_seed = 24;
  SeedGenerator gen(config, common::Xoshiro256StarStar(1));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(gen.next_program().size(), 24u);
  }
}

TEST(SeedGen, AllSeedInstructionsAreLegal) {
  SeedGenerator gen(SeedGenConfig{}, common::Xoshiro256StarStar(2));
  for (int i = 0; i < 200; ++i) {
    for (const isa::Word w : gen.next_program()) {
      EXPECT_TRUE(isa::decode(w).ok()) << std::hex << w;
    }
  }
}

TEST(SeedGen, DeterministicForSeed) {
  SeedGenerator a(SeedGenConfig{}, common::Xoshiro256StarStar(3));
  SeedGenerator b(SeedGenConfig{}, common::Xoshiro256StarStar(3));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.next_program(), b.next_program());
  }
}

TEST(SeedGen, MixCoversInstructionClasses) {
  SeedGenerator gen(SeedGenConfig{}, common::Xoshiro256StarStar(4));
  bool saw_load = false;
  bool saw_store = false;
  bool saw_branch = false;
  bool saw_csr = false;
  bool saw_system = false;
  for (int i = 0; i < 100; ++i) {
    for (const isa::Word w : gen.next_program()) {
      const auto d = isa::decode(w);
      ASSERT_TRUE(d.ok());
      const auto& s = isa::spec(d.instr.mnemonic);
      saw_load |= s.klass == isa::InstrClass::kLoad;
      saw_store |= s.klass == isa::InstrClass::kStore;
      saw_branch |= s.klass == isa::InstrClass::kBranch;
      saw_csr |= s.klass == isa::InstrClass::kCsr;
      saw_system |= s.klass == isa::InstrClass::kSystem;
    }
  }
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_store);
  EXPECT_TRUE(saw_branch);
  EXPECT_TRUE(saw_csr);
  EXPECT_TRUE(saw_system);
}

TEST(SeedGen, ZeroWeightClassNeverAppears) {
  SeedGenConfig config;
  config.w_csr = 0;
  config.w_system = 0;
  SeedGenerator gen(config, common::Xoshiro256StarStar(5));
  for (int i = 0; i < 50; ++i) {
    for (const isa::Word w : gen.next_program()) {
      const auto d = isa::decode(w);
      ASSERT_TRUE(d.ok());
      const auto klass = isa::spec(d.instr.mnemonic).klass;
      EXPECT_NE(klass, isa::InstrClass::kCsr);
      EXPECT_NE(klass, isa::InstrClass::kSystem);
    }
  }
}

// --- oracle on synthetic traces -------------------------------------------------------

isa::ArchResult base_result() {
  isa::ArchResult r;
  isa::CommitRecord c;
  c.pc = 0x80000400;
  c.word = 0x13;
  r.commits.push_back(c);
  return r;
}

TEST(Oracle, IdenticalTracesMatch) {
  EXPECT_FALSE(compare(base_result(), base_result()).has_value());
}

TEST(Oracle, DetectsRdValueDivergence) {
  auto dut = base_result();
  auto golden = base_result();
  dut.commits[0].wrote_rd = golden.commits[0].wrote_rd = true;
  dut.commits[0].rd = golden.commits[0].rd = 5;
  dut.commits[0].rd_value = 1;
  golden.commits[0].rd_value = 2;
  const auto m = compare(dut, golden);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->commit_index, 0u);
  EXPECT_NE(m->description.find("x5"), std::string::npos);
}

TEST(Oracle, DetectsTrapPresenceDivergence) {
  auto dut = base_result();
  auto golden = base_result();
  golden.commits[0].trapped = true;
  golden.commits[0].cause = 5;
  EXPECT_TRUE(compare(dut, golden).has_value());
}

TEST(Oracle, DetectsCauseDivergence) {
  auto dut = base_result();
  auto golden = base_result();
  dut.commits[0].trapped = golden.commits[0].trapped = true;
  dut.commits[0].cause = 2;
  golden.commits[0].cause = 5;
  const auto m = compare(dut, golden);
  ASSERT_TRUE(m.has_value());
  EXPECT_NE(m->description.find("cause"), std::string::npos);
}

TEST(Oracle, DetectsTraceLengthDivergence) {
  auto dut = base_result();
  auto golden = base_result();
  golden.commits.push_back(golden.commits[0]);
  const auto m = compare(dut, golden);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->commit_index, 1u);
}

TEST(Oracle, DetectsFinalRegisterDivergence) {
  auto dut = base_result();
  auto golden = base_result();
  dut.regs[7] = 1;
  const auto m = compare(dut, golden);
  ASSERT_TRUE(m.has_value());
  EXPECT_NE(m->description.find("end state"), std::string::npos);
}

TEST(Oracle, DetectsMemValueDivergence) {
  auto dut = base_result();
  auto golden = base_result();
  dut.commits[0].wrote_mem = golden.commits[0].wrote_mem = true;
  dut.commits[0].mem_addr = golden.commits[0].mem_addr = 0x80010000;
  dut.commits[0].mem_bytes = golden.commits[0].mem_bytes = 4;
  dut.commits[0].mem_value = 0xa;
  golden.commits[0].mem_value = 0xb;
  EXPECT_TRUE(compare(dut, golden).has_value());
}

TEST(Oracle, InstretAloneIsNotCompared) {
  auto dut = base_result();
  auto golden = base_result();
  dut.instret = 10;
  golden.instret = 11;
  EXPECT_FALSE(compare(dut, golden).has_value());
}

// --- Backend ------------------------------------------------------------------------------

TEST(Backend, RunsSeedsWithoutMismatchOnCleanCore) {
  BackendConfig config;
  config.core = soc::CoreKind::kRocket;
  config.bugs = soc::BugSet::none();
  Backend backend(config);
  for (int i = 0; i < 30; ++i) {
    const TestCase seed = backend.make_seed();
    const TestOutcome outcome = backend.run_test(seed);
    EXPECT_FALSE(outcome.mismatch) << outcome.mismatch_description;
    EXPECT_GT(outcome.coverage.count(), 0u);
    EXPECT_GT(outcome.commits, 0u);
  }
  EXPECT_EQ(backend.tests_executed(), 30u);
}

TEST(Backend, SeedAndMutantProvenance) {
  Backend backend(BackendConfig{});
  const TestCase seed = backend.make_seed();
  EXPECT_TRUE(seed.is_seed());
  EXPECT_EQ(seed.seed_id, seed.id);
  const TestCase mutant = backend.make_mutant(seed);
  EXPECT_FALSE(mutant.is_seed());
  EXPECT_EQ(mutant.parent_id, seed.id);
  EXPECT_EQ(mutant.seed_id, seed.id);
  EXPECT_EQ(mutant.generation, 1u);
}

TEST(Backend, DistinctRunsDecorrelate) {
  BackendConfig a_config;
  a_config.rng_run = 0;
  BackendConfig b_config;
  b_config.rng_run = 1;
  Backend a(a_config);
  Backend b(b_config);
  EXPECT_NE(a.make_seed().words, b.make_seed().words);
}

TEST(Backend, ListingRendersProgram) {
  Backend backend(BackendConfig{});
  const TestCase seed = backend.make_seed();
  const std::string listing = to_listing(seed);
  EXPECT_NE(listing.find("test #"), std::string::npos);
  EXPECT_NE(listing.find("80000400"), std::string::npos);
}

// --- TheHuzz --------------------------------------------------------------------------------

TEST(TheHuzzFuzzer, CoverageGrowsOverSteps) {
  BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::none();
  Backend backend(config);
  TheHuzz fuzzer(backend, PolicyConfig{});
  std::size_t after_10 = 0;
  for (int i = 0; i < 200; ++i) {
    fuzzer.step();
    if (i == 9) {
      after_10 = fuzzer.accumulated().covered();
    }
  }
  EXPECT_GT(fuzzer.accumulated().covered(), after_10);
}

TEST(TheHuzzFuzzer, StepIndexIncrements) {
  Backend backend(BackendConfig{});
  TheHuzz fuzzer(backend, PolicyConfig{});
  EXPECT_EQ(fuzzer.step().test_index, 1u);
  EXPECT_EQ(fuzzer.step().test_index, 2u);
}

TEST(TheHuzzFuzzer, NeverStallsWhenPoolEmpties) {
  BackendConfig config;
  Backend backend(config);
  PolicyConfig policy;
  policy.thehuzz.initial_seeds = 1;
  policy.mutants_per_interesting = 0;  // nothing ever requeued
  TheHuzz fuzzer(backend, policy);
  for (int i = 0; i < 25; ++i) {
    fuzzer.step();  // must regenerate seeds, not crash
  }
  SUCCEED();
}

TEST(TheHuzzFuzzer, DetectsEasyBugEventually) {
  BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::single(soc::BugId::kV5SilentLoadFault);
  Backend backend(config);
  TheHuzz fuzzer(backend, PolicyConfig{});
  bool detected = false;
  for (int i = 0; i < 500 && !detected; ++i) {
    const StepResult r = fuzzer.step();
    detected = r.mismatch;
  }
  EXPECT_TRUE(detected);
}

// --- RandomFuzzer (the random-regression control) --------------------------------

TEST(RandomRegression, StepsAndAccumulates) {
  BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  Backend backend(config);
  RandomFuzzer fuzzer(backend);
  EXPECT_EQ(fuzzer.name(), "RandomRegression");
  for (int i = 0; i < 60; ++i) {
    const StepResult r = fuzzer.step();
    EXPECT_EQ(r.test_index, static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_GT(fuzzer.accumulated().covered(), 0u);
  // Pure seeds: the backend never produced a mutant.
  EXPECT_EQ(backend.tests_executed(), 60u);
}

TEST(RandomRegression, CannotReachEncodingSpaceBugs) {
  // The structural limit of random regression: its tests are always legal
  // programs, so bugs gated on malformed encodings (V1's FENCE.I rd bits,
  // V2's reserved funct7, V3's mis-encoded memory words) are unreachable.
  // Mutation-based fuzzers reach them; this is why fuzzing displaced
  // random regression (paper Sec. I).
  BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::none();
  config.bugs.enable(soc::BugId::kV1FenceIDecode);
  config.bugs.enable(soc::BugId::kV2IllegalOpExec);
  config.bugs.enable(soc::BugId::kV3ExcQueueCause);
  Backend backend(config);
  RandomFuzzer fuzzer(backend);
  for (int i = 0; i < 1000; ++i) {
    const StepResult r = fuzzer.step();
    ASSERT_FALSE(r.mismatch) << "random regression fired an encoding bug";
    ASSERT_TRUE(r.firings.empty());
  }
}

TEST(RandomRegression, MutationBasedFuzzerReachesThem) {
  BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::single(soc::BugId::kV2IllegalOpExec);
  Backend backend(config);
  TheHuzz fuzzer(backend, PolicyConfig{});
  bool detected = false;
  for (int i = 0; i < 6000 && !detected; ++i) {
    detected = fuzzer.step().mismatch;
  }
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace mabfuzz::fuzz
