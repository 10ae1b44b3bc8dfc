// Unit tests for the common substrate: RNG, bit ops, statistics, table
// rendering, CLI parsing and the checkpoint hash.

#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bitops.hpp"
#include "common/bytes.hpp"
#include "common/fastmod.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace mabfuzz::common {
namespace {

// --- RNG ---------------------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  Xoshiro256StarStar a(42);
  Xoshiro256StarStar b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1);
  Xoshiro256StarStar b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next();
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256StarStar rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Xoshiro256StarStar rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Xoshiro256StarStar rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 1000 draws
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256StarStar rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Xoshiro256StarStar rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolApproximatesProbability) {
  Xoshiro256StarStar rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.next_bool(0.3);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedSamplingFollowsWeights) {
  Xoshiro256StarStar rng(19);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const std::size_t pick = rng.next_weighted(weights);
    ASSERT_LT(pick, 3u);
    ++counts[pick];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedAllZeroReturnsSize) {
  Xoshiro256StarStar rng(23);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.next_weighted(weights), weights.size());
}

TEST(Rng, ShufflePreservesElements) {
  Xoshiro256StarStar rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, DeriveSeedIsStableAndTagSensitive) {
  const auto a1 = derive_seed(1, 0, "seedgen");
  const auto a2 = derive_seed(1, 0, "seedgen");
  const auto b = derive_seed(1, 0, "mutation");
  const auto c = derive_seed(1, 1, "seedgen");
  const auto d = derive_seed(2, 0, "seedgen");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_NE(a1, c);
  EXPECT_NE(a1, d);
}

// --- bitops ------------------------------------------------------------------

TEST(BitOps, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(12), 0xfffu);
  EXPECT_EQ(low_mask(64), ~0ULL);
  EXPECT_EQ(low_mask(99), ~0ULL);
}

TEST(BitOps, BitsExtract) {
  EXPECT_EQ(bits(0xdeadbeef, 0, 4), 0xfu);
  EXPECT_EQ(bits(0xdeadbeef, 4, 4), 0xeu);
  EXPECT_EQ(bits(0xdeadbeef, 28, 4), 0xdu);
}

TEST(BitOps, InsertBitsRoundTrip) {
  const std::uint64_t v = insert_bits(0, 12, 8, 0xab);
  EXPECT_EQ(bits(v, 12, 8), 0xabu);
  EXPECT_EQ(insert_bits(v, 12, 8, 0), 0u);
}

TEST(BitOps, SignExtend) {
  EXPECT_EQ(sign_extend(0xfff, 12), -1);
  EXPECT_EQ(sign_extend(0x7ff, 12), 2047);
  EXPECT_EQ(sign_extend(0x800, 12), -2048);
  EXPECT_EQ(sign_extend(0x0, 12), 0);
  EXPECT_EQ(sign_extend(0xffffffff, 32), -1);
}

TEST(BitOps, Sext32) {
  EXPECT_EQ(sext32(0x80000000ULL), static_cast<std::int64_t>(0xffffffff80000000ULL));
  EXPECT_EQ(sext32(0x7fffffffULL), 0x7fffffffLL);
}

TEST(BitOps, IsAligned) {
  EXPECT_TRUE(is_aligned(8, 4));
  EXPECT_FALSE(is_aligned(10, 4));
  EXPECT_TRUE(is_aligned(0, 8));
}

// --- stats -------------------------------------------------------------------

TEST(Stats, RunningStatsBasics) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Stats, SummarizeEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.p25, 0.0);
  EXPECT_EQ(s.p75, 0.0);
}

TEST(Stats, SummarizeSingleSampleIsThatSampleEverywhere) {
  const std::vector<double> v = {42.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.median, 42.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
  EXPECT_DOUBLE_EQ(s.p25, 42.0);
  EXPECT_DOUBLE_EQ(s.p75, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 3.25);
}

TEST(Stats, PercentileEmptyAllRanks) {
  // Regression: the internal percentile_sorted helper computed
  // size() - 1 before checking for emptiness, wrapping to SIZE_MAX.
  // Every rank on an empty sample set must return 0, not crash.
  for (const double p : {0.0, 25.0, 50.0, 75.0, 100.0, -5.0, 300.0}) {
    EXPECT_DOUBLE_EQ(percentile({}, p), 0.0) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);  // empty
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 100), 7.0);
  // Out-of-range p clamps instead of indexing out of bounds.
  const std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 250), 3.0);
}

TEST(Stats, MedianOddCount) {
  const std::vector<double> v = {5, 1, 3};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Stats, MedianEvenCountInterpolates) {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Stats, SpeedupRatioGuardsDivisionByZero) {
  EXPECT_DOUBLE_EQ(speedup_ratio(10.0, 4.0), 2.5);
  EXPECT_DOUBLE_EQ(speedup_ratio(4.0, 10.0), 0.4);
  // Zero / negative sides (empty or censored cells) read as "no speedup"
  // rather than dividing by zero.
  EXPECT_DOUBLE_EQ(speedup_ratio(10.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(speedup_ratio(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(speedup_ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(speedup_ratio(-1.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(speedup_ratio(5.0, -1.0), 0.0);
}

// --- json --------------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterEmitsCompactNestedStructure) {
  std::ostringstream os;
  JsonWriter json(os, /*pretty=*/false);
  json.begin_object();
  json.key("name").value("ucb");
  json.key("tests").value(std::uint64_t{60});
  json.key("mean").value(2.5);
  json.key("ok").value(true);
  json.key("grid").begin_array();
  json.value(std::uint64_t{1}).value(std::uint64_t{2});
  json.end_array();
  json.end_object();
  EXPECT_EQ(os.str(),
            R"({"name":"ucb","tests":60,"mean":2.5,"ok":true,"grid":[1,2]})");
}

TEST(Json, DoublesAreShortestRoundTripAndNonFiniteIsNull) {
  std::ostringstream os;
  JsonWriter json(os, /*pretty=*/false);
  json.begin_array();
  json.value(0.1);
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(os.str(), "[0.1,null,null]");
}

TEST(Json, StructuralMisuseThrows) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  EXPECT_THROW(json.value("no key"), std::logic_error);
  EXPECT_THROW(json.end_array(), std::logic_error);
  EXPECT_THROW(json.begin_array().key("k"), std::logic_error);
}

// --- table -------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  Table t({"a", "b"});
  t.add_row({"x,y", "plain"});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.render(os);
  SUCCEED();  // no crash; padding handled
}

TEST(TableFormat, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(3.40, 2), "3.4");
  EXPECT_EQ(format_double(2.00, 2), "2");
  EXPECT_EQ(format_double(0.25, 2), "0.25");
}

TEST(TableFormat, FormatSpeedup) { EXPECT_EQ(format_speedup(3.09), "3.09x"); }

TEST(TableFormat, FormatScientific) {
  EXPECT_EQ(format_scientific(600.0), "6.00e+02");
}

// --- cli ---------------------------------------------------------------------

TEST(Cli, SplitKeepsGetlineSemantics) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a"}));
  EXPECT_EQ(split(",a", ','), (std::vector<std::string>{"", "a"}));
  EXPECT_EQ(split("", ','), std::vector<std::string>{});
  EXPECT_EQ(split("solo", ','), std::vector<std::string>{"solo"});
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--tests", "500", "--alpha=0.25", "--verbose"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_uint("tests", 0), 500u);
  EXPECT_EQ(args.get_string("alpha", ""), "0.25");
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_uint("missing", 7), 7u);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--n", "3", "out.txt"};
  const CliArgs args(5, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "out.txt");
}

TEST(Cli, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--n", "abc"};
  const CliArgs args(3, argv);
  EXPECT_THROW((void)args.get_uint("n", 0), std::invalid_argument);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a", "yes", "--b", "off"};
  const CliArgs args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
}

// ---------------------------------------------------------------------------
// FastMod — must be bit-for-bit identical to `%` (the substrate's coverage
// bucketing depends on it; a single differing result would shift campaign
// artifacts).

TEST(FastMod, MatchesOperatorPercentExhaustivelyForSmallOperands) {
  const std::uint64_t divisors[] = {1,  2,  3,  5,  7,  8,  11, 12,
                                    16, 24, 31, 48, 64, 96, 97, 128};
  for (const std::uint64_t d : divisors) {
    const FastMod mod(d);
    EXPECT_EQ(mod.divisor(), d);
    for (std::uint64_t n = 0; n < 4096; ++n) {
      ASSERT_EQ(mod(n), n % d) << "d=" << d << " n=" << n;
    }
  }
}

TEST(FastMod, MatchesOperatorPercentAtExtremesAndRandomly) {
  const std::uint64_t divisors[] = {
      1, 3, 12, 24, 48, 96, 1000, 4093, 65535, 65536, 1u << 20, 0x7fffffffu,
      0xffffffffu /* largest supported divisor, 2^32 - 1 */};
  const std::uint64_t edges[] = {0,
                                 1,
                                 2,
                                 0xffffffffull,
                                 0x100000000ull,
                                 0x123456789abcdefull,
                                 std::numeric_limits<std::uint64_t>::max() - 1,
                                 std::numeric_limits<std::uint64_t>::max()};
  SplitMix64 rng(0x5eedf00dULL);
  for (const std::uint64_t d : divisors) {
    const FastMod mod(d);
    for (const std::uint64_t n : edges) {
      ASSERT_EQ(mod(n), n % d) << "d=" << d << " n=" << n;
    }
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t n = rng.next();
      ASSERT_EQ(mod(n), n % d) << "d=" << d << " n=" << n;
    }
  }
}

TEST(FastMod, DefaultAndZeroDivisorReduceToZero) {
  const FastMod def;  // divisor 1: everything reduces to 0
  EXPECT_EQ(def(0), 0u);
  EXPECT_EQ(def(std::numeric_limits<std::uint64_t>::max()), 0u);
  const FastMod zero(0);  // tolerated (callers would have UB with `%`)
  EXPECT_EQ(zero(12345), 0u);
}

// ---------------------------------------------------------------------------
// hash64 — the checkpoint-v4 trailer and probe fingerprint. The recorded
// values match a reimplementation from docs/ARTIFACTS.md; a change to any
// of them is a checkpoint format change.

/// `n` bytes of a fixed pattern with period 256: no two of its first 32
/// aligned words are equal.
std::string pattern(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(i * 131 + 7);
  }
  return out;
}

TEST(Hash64, MatchesRecordedValues) {
  EXPECT_EQ(hash64(""), 0xaeff9dd1da94e555ULL);
  // One to seven tail bytes and no whole word.
  const std::array<std::uint64_t, 7> tails = {
      0xf6360a44087c627dULL, 0x144d7ed16c6f1791ULL, 0x10d50f64426cf3d1ULL,
      0x211a506765962ef4ULL, 0x4e85d02fcb9074c0ULL, 0xbf8ab75bfbbe9279ULL,
      0xa72d70e7c6cd0cb5ULL};
  for (std::size_t n = 1; n <= tails.size(); ++n) {
    EXPECT_EQ(hash64(std::string_view("mabfuzz", n)), tails[n - 1]) << n;
  }
  // Around one 32-byte block: three words and a tail, four words, four
  // words and a tail.
  EXPECT_EQ(hash64(pattern(31)), 0xe6d6c1f4ac1a49bdULL);
  EXPECT_EQ(hash64(pattern(32)), 0xbea3b630c4826218ULL);
  EXPECT_EQ(hash64(pattern(33)), 0x98882204dbc4e669ULL);
  // Mostly zero, like the coverage words of a state image.
  std::string sparse(200 * 1024, '\0');
  sparse[3] = 'a';
  sparse[100000] = 'b';
  sparse.back() = 'c';
  EXPECT_EQ(hash64(sparse), 0xb6ae824168a317b0ULL);
}

TEST(Hash64, EverySingleBitFlipChangesTheHash) {
  // Guaranteed by construction: every step is a bijection of its lane.
  std::string bytes = pattern(1024);
  const std::uint64_t original = hash64(bytes);
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(hash64(bytes), original) << "bit " << bit;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  }
}

TEST(Hash64, EveryTwoBitFlipChangesTheHash) {
  // Not guaranteed, but pinned: without the premultiply and the rotation
  // a flip of one word's top bit passes every step as the same top-bit
  // difference, and two such flips cancel.
  for (std::string bytes : {pattern(64), std::string(64, '\0')}) {
    const std::uint64_t original = hash64(bytes);
    std::size_t collisions = 0;
    for (std::size_t a = 0; a < bytes.size() * 8; ++a) {
      bytes[a / 8] = static_cast<char>(bytes[a / 8] ^ (1 << (a % 8)));
      for (std::size_t b = a + 1; b < bytes.size() * 8; ++b) {
        bytes[b / 8] = static_cast<char>(bytes[b / 8] ^ (1 << (b % 8)));
        collisions += hash64(bytes) == original ? 1 : 0;
        bytes[b / 8] = static_cast<char>(bytes[b / 8] ^ (1 << (b % 8)));
      }
      bytes[a / 8] = static_cast<char>(bytes[a / 8] ^ (1 << (a % 8)));
    }
    EXPECT_EQ(collisions, 0u);
  }
}

// --- read_file ------------------------------------------------------------
//
// Every artifact file is read through read_file. Its refusals and their
// messages are part of the loaders' error text.

/// Expects read_file(path, max_bytes) to throw with exactly `message`.
void expect_refused(const std::string& path, std::uint64_t max_bytes,
                    const std::string& message) {
  try {
    (void)read_file(path, max_bytes);
    ADD_FAILURE() << path << " was read";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), message);
  }
}

TEST(ReadFile, MissingFileNamesThePathAndTheReason) {
  const std::string path = testing::TempDir() + "read-file-missing.bin";
  std::remove(path.c_str());
  expect_refused(path, 1024,
                 "cannot read '" + path + "': " + std::strerror(ENOENT));
}

TEST(ReadFile, DirectoryIsRefused) {
  const std::string path = testing::TempDir();
  expect_refused(path, 1024,
                 "cannot read '" + path + "': " + std::strerror(EISDIR));
}

TEST(ReadFile, OneByteOverTheBoundIsRefused) {
  const std::string path = testing::TempDir() + "read-file-over.bin";
  write_file_atomic(path, pattern(4097));
  expect_refused(path, 4096,
                 "'" + path + "' is 4097 bytes, above the 4096-byte bound");
  std::remove(path.c_str());
}

TEST(ReadFile, EmptyFileAndFileAtTheBoundReadBack) {
  const std::string path = testing::TempDir() + "read-file-exact.bin";
  write_file_atomic(path, "");
  EXPECT_EQ(read_file(path, 0), "");
  // Zero bytes included: the read is binary.
  const std::string bytes = pattern(64 * 1024) + std::string(3, '\0');
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path, bytes.size()), bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mabfuzz::common
