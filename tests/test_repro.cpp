// Reproduction-tooling tests: test-case serialization round-trips and the
// delta-debugging minimiser (directed bug triggers buried in noise must
// reduce to their essential instructions).

#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "fuzz/repro.hpp"
#include "isa/builder.hpp"

namespace mabfuzz::fuzz {
namespace {

using namespace isa;  // builders

TestCase test_of(std::vector<Word> words) {
  TestCase t;
  t.id = 7;
  t.seed_id = 7;
  t.words = std::move(words);
  return t;
}

// --- serialization -----------------------------------------------------------

TEST(Repro, SerializeParseRoundTrip) {
  const TestCase original = test_of(assemble({li(1, 5), add(2, 1, 1), ecall()}));
  const auto parsed = parse_test(serialize_test(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->words, original.words);
}

TEST(Repro, ParseIgnoresCommentsAndBlanks) {
  const auto parsed = parse_test(
      "# header comment\n"
      "\n"
      "00000013  # nop\n"
      "   00100093   \n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->words.size(), 2u);
  EXPECT_EQ(parsed->words[0], 0x13u);
  EXPECT_EQ(parsed->words[1], 0x00100093u);
}

TEST(Repro, ParseRejectsMalformedWords) {
  EXPECT_FALSE(parse_test("0013\n").has_value());        // wrong width
  EXPECT_FALSE(parse_test("0000001g\n").has_value());    // non-hex
  EXPECT_FALSE(parse_test("# only comments\n").has_value());
}

// --- minimiser ------------------------------------------------------------------

Backend v5_backend() {
  BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::single(soc::BugId::kV5SilentLoadFault);
  return Backend(config);
}

TEST(Minimize, ReducesNoisyTriggerToEssence) {
  Backend backend = v5_backend();
  // V5 trigger (bad-address load) buried in 12 irrelevant instructions.
  const TestCase noisy = test_of(assemble({
      li(5, 1), add(6, 5, 5), mul(7, 6, 6), xori(8, 7, 0x55),
      li(1, 64),                       // essential: bad address
      sub(9, 8, 5), sltu(10, 9, 8), andi(11, 10, 3),
      lw(2, 1, 0),                     // essential: the silent faulting load
      or_(12, 11, 5), addw(13, 12, 6), slli(14, 13, 2),
  }));
  const auto pred = mismatch_predicate(soc::BugId::kV5SilentLoadFault);
  ASSERT_TRUE(pred(backend.run_test(noisy))) << "trigger must fail pre-minimise";

  const MinimizeResult result = minimize_test(backend, noisy, pred);
  EXPECT_TRUE(pred(backend.run_test(result.test)));
  // The reproducer keeps the faulting load and little else. (li(1,64) can
  // disappear too: with x1 = 0 the load still faults.)
  EXPECT_LE(result.test.words.size(), 3u);
  EXPECT_GT(result.removed, 8u);
  EXPECT_GT(result.executions, 0u);
}

TEST(Minimize, AlreadyMinimalIsStable) {
  Backend backend = v5_backend();
  const TestCase minimal = test_of(assemble({lw(2, 0, 64)}));
  const auto pred = mismatch_predicate(soc::BugId::kV5SilentLoadFault);
  ASSERT_TRUE(pred(backend.run_test(minimal)));
  const MinimizeResult result = minimize_test(backend, minimal, pred);
  EXPECT_EQ(result.test.words.size(), 1u);
  EXPECT_EQ(result.removed, 0u);
}

TEST(Minimize, PredicateWithoutBugFilter) {
  Backend backend = v5_backend();
  const TestCase trigger = test_of(assemble({nop(), lw(2, 0, 64), nop()}));
  const MinimizeResult result =
      minimize_test(backend, trigger, mismatch_predicate());
  EXPECT_LE(result.test.words.size(), 1u + 0u + 1u);
  EXPECT_TRUE(mismatch_predicate()(backend.run_test(result.test)));
}

TEST(Minimize, V2TriggerReduces) {
  BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::BugSet::single(soc::BugId::kV2IllegalOpExec);
  Backend backend(config);

  std::vector<Word> words = assemble({li(1, 3), li(2, 4), nop(), nop()});
  Word w = encode_or_die(addw(3, 1, 2));
  w = static_cast<Word>(common::insert_bits(w, 25, 7, 0b1000000));
  words.push_back(w);
  words.insert(words.end(), {encode_or_die(nop()), encode_or_die(nop())});

  const auto pred = mismatch_predicate(soc::BugId::kV2IllegalOpExec);
  const TestCase noisy = test_of(words);
  ASSERT_TRUE(pred(backend.run_test(noisy)));
  const MinimizeResult result = minimize_test(backend, noisy, pred);
  // The malformed ADDW itself is all that is needed.
  EXPECT_LE(result.test.words.size(), 2u);
  EXPECT_NE(std::find(result.test.words.begin(), result.test.words.end(), w),
            result.test.words.end());
}

}  // namespace
}  // namespace mabfuzz::fuzz
