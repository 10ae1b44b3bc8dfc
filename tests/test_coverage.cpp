// Coverage infrastructure tests: registry, bitmap maps, accumulator and
// the γ-window saturation monitor, including parameterised property-style
// sweeps over universe sizes.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "coverage/context.hpp"
#include "coverage/map.hpp"
#include "coverage/monitor.hpp"
#include "coverage/registry.hpp"

namespace mabfuzz::coverage {
namespace {

// --- Registry -----------------------------------------------------------------

TEST(Registry, SequentialIds) {
  Registry reg;
  EXPECT_EQ(reg.add("a"), 0u);
  EXPECT_EQ(reg.add("b"), 1u);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(0), "a");
}

TEST(Registry, ArrayRegistration) {
  Registry reg;
  const PointId base = reg.add_array("cache/set", 4);
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg.name(2), "cache/set[2]");
}

TEST(Registry, FreezeBlocksRegistration) {
  Registry reg;
  reg.add("x");
  reg.freeze();
  EXPECT_TRUE(reg.frozen());
  EXPECT_DEATH(reg.add("y"), "");
}

// --- Map ------------------------------------------------------------------------

TEST(Map, SetTestCount) {
  Map m(100);
  EXPECT_TRUE(m.empty());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(99);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_TRUE(m.test(63));
  EXPECT_FALSE(m.test(62));
}

TEST(Map, OutOfUniverseSetIsIgnored) {
  Map m(10);
  m.set(10);
  m.set(9999);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.test(10));
}

TEST(Map, MergeIsUnion) {
  Map a(70);
  Map b(70);
  a.set(1);
  b.set(1);
  b.set(65);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(65));
}

TEST(Map, CountNew) {
  Map a(130);
  Map b(130);
  a.set(3);
  a.set(100);
  a.set(128);
  b.set(100);
  EXPECT_EQ(a.count_new(b), 2u);
  EXPECT_EQ(b.count_new(a), 0u);
}

TEST(Map, AnyAndEmptyAgreeWithCount) {
  Map m(40'000);  // hundreds of words: empty() must not need a full popcount
  EXPECT_FALSE(m.any());
  EXPECT_TRUE(m.empty());

  // A bit in the first word short-circuits immediately...
  m.set(0);
  EXPECT_TRUE(m.any());
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.count(), 1u);

  // ...and a bit only in the very last word is still found.
  Map tail(40'000);
  tail.set(39'999);
  EXPECT_TRUE(tail.any());
  EXPECT_FALSE(tail.empty());

  tail.clear();
  EXPECT_FALSE(tail.any());
  EXPECT_TRUE(tail.empty());

  // Degenerate universes.
  Map zero(0);
  EXPECT_FALSE(zero.any());
  EXPECT_TRUE(zero.empty());
}

TEST(Map, SwapExchangesContents) {
  Map a(100);
  Map b(30);
  a.set(64);
  b.set(5);
  a.swap(b);
  EXPECT_EQ(a.universe(), 30u);
  EXPECT_EQ(b.universe(), 100u);
  EXPECT_TRUE(a.test(5));
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(a.test(64));
}

TEST(Map, ClearResets) {
  Map m(20);
  m.set(5);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.universe(), 20u);
}

TEST(Map, EqualityIncludesUniverse) {
  Map a(10);
  Map b(10);
  Map c(11);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  a.set(1);
  EXPECT_FALSE(a == b);
}

TEST(Map, WordsAssignWordsRoundTrip) {
  Map m(100);
  m.set(0);
  m.set(63);
  m.set(99);
  const auto words = m.words();
  ASSERT_EQ(words.size(), 2u);
  Map rebuilt;
  rebuilt.assign_words(100, words);
  EXPECT_EQ(rebuilt, m);
  EXPECT_EQ(rebuilt.count(), 3u);
}

TEST(Map, AssignWordsRejectsWrongSizeAndTailBits) {
  const std::vector<std::uint64_t> one_word(1, 0);
  Map m;
  EXPECT_THROW(m.assign_words(100, one_word), std::invalid_argument);
  // Serialized-map invariant: bits at/above the universe must be zero —
  // a corrupt artifact fails loudly instead of inflating count().
  const std::vector<std::uint64_t> tail_set = {0, 1ULL << 63};
  EXPECT_THROW(m.assign_words(100, tail_set), std::invalid_argument);
  const std::vector<std::uint64_t> tail_ok = {~0ULL, (1ULL << 36) - 1};
  m.assign_words(100, tail_ok);
  EXPECT_EQ(m.count(), 100u);
}

class MapProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MapProperty, UnionCountsAreConsistent) {
  const std::size_t universe = GetParam();
  common::Xoshiro256StarStar rng(universe * 977 + 5);
  for (int round = 0; round < 20; ++round) {
    Map a(universe);
    Map b(universe);
    for (std::size_t i = 0; i < universe / 3 + 1; ++i) {
      a.set(static_cast<PointId>(rng.next_index(universe)));
      b.set(static_cast<PointId>(rng.next_index(universe)));
    }
    // |a ∪ b| = |b| + |a \ b|
    Map u = b;
    u.merge(a);
    EXPECT_EQ(u.count(), b.count() + a.count_new(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, MapProperty,
                         ::testing::Values(1, 63, 64, 65, 1000, 4096, 23456));

// --- Map::set_bits: a block of points as one OR -----------------------------------

/// The per-bit meaning set_bits must keep: set(base + i) for each set bit i.
Map set_bits_reference(std::size_t universe, PointId base, std::uint64_t mask) {
  Map m(universe);
  for (unsigned i = 0; i < 64; ++i) {
    if ((mask >> i) & 1ULL) {
      m.set(base + i);
    }
  }
  return m;
}

TEST(MapSetBits, MatchesBitByBitSet) {
  common::Xoshiro256StarStar rng(77);
  for (const std::size_t universe : {1, 6, 63, 64, 65, 130, 1000}) {
    // Every base from 0 to past the universe's end, so blocks straddle
    // each word boundary and run over the last point.
    for (std::size_t base = 0; base < universe + 70; ++base) {
      for (const std::uint64_t mask :
           {std::uint64_t{0}, std::uint64_t{0x3f}, std::uint64_t{0x21}, ~std::uint64_t{0},
            std::uint64_t{1} << 63, rng.next()}) {
        Map got(universe);
        got.set_bits(static_cast<PointId>(base), mask);
        ASSERT_EQ(got, set_bits_reference(universe, static_cast<PointId>(base), mask))
            << "universe " << universe << " base " << base << " mask " << mask;
      }
    }
  }
}

TEST(MapSetBits, StraddlesWordsAndEndsOnTheLastPoint) {
  Map m(130);
  m.set_bits(61, 0x3f);  // points 61..66: three in word 0, three in word 1
  EXPECT_EQ(m.count(), 6u);
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_TRUE(m.test(66));
  EXPECT_FALSE(m.test(67));

  Map last(130);
  last.set_bits(124, 0x3f);  // points 124..129: ends on the last point
  EXPECT_EQ(last.count(), 6u);
  EXPECT_TRUE(last.test(129));
  last.set_bits(126, 0xff);  // 126..133: only 126..129 exist
  EXPECT_EQ(last.count(), 6u);
  EXPECT_EQ(last.words().back() >> 2, 0u);  // nothing beyond the universe

  Map zero(130);
  zero.set_bits(64, 0);
  EXPECT_TRUE(zero.empty());
}

TEST(ContextHitMask, OffsetsTheBlock) {
  Context ctx;
  const PointId block = ctx.registry().add_array("block", 12);
  ctx.freeze();
  ctx.begin_test();
  ctx.hit_mask(block, 6, 0b100101);
  EXPECT_EQ(ctx.test_map().count(), 3u);
  EXPECT_TRUE(ctx.test_map().test(block + 6));
  EXPECT_TRUE(ctx.test_map().test(block + 8));
  EXPECT_TRUE(ctx.test_map().test(block + 11));
}

// --- Sparse count_new / absorb against a per-bit reference --------------------------

std::size_t count_new_reference(const Map& mine, const Map& theirs) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < mine.universe(); ++i) {
    const auto id = static_cast<PointId>(i);
    total += mine.test(id) && !theirs.test(id) ? 1 : 0;
  }
  return total;
}

Map random_map(std::size_t universe, double density, common::Xoshiro256StarStar& rng) {
  Map m(universe);
  for (std::size_t i = 0; i < universe; ++i) {
    if (rng.next_bool(density)) {
      m.set(static_cast<PointId>(i));
    }
  }
  return m;
}

TEST(MapSparseFold, CountNewMatchesPerBitReference) {
  common::Xoshiro256StarStar rng(4321);
  for (const std::size_t universe : {1, 64, 65, 511, 512, 513, 1000, 16080}) {
    for (const double density : {0.0, 0.001, 0.02, 0.5, 1.0}) {
      const Map mine = random_map(universe, density, rng);
      const Map theirs = random_map(universe, 0.5, rng);
      EXPECT_EQ(mine.count_new(theirs), count_new_reference(mine, theirs))
          << "universe " << universe << " density " << density;
      // A superset of `mine` leaves nothing new.
      Map cover = theirs;
      cover.merge(mine);
      EXPECT_EQ(mine.count_new(cover), 0u);
      // `other` with fewer words: its missing words count as empty.
      const Map shorter = random_map(universe / 3, 0.5, rng);
      EXPECT_EQ(mine.count_new(shorter), count_new_reference(mine, shorter))
          << "universe " << universe << " against " << universe / 3;
    }
  }
}

TEST(MapSparseFold, AbsorbMatchesPerBitReference) {
  common::Xoshiro256StarStar rng(8765);
  for (const std::size_t universe : {65, 1000, 16080}) {
    Accumulator acc(universe);
    Map expected(universe);
    for (int t = 0; t < 200; ++t) {
      // Mostly sparse tests, as in a campaign, with the odd dense one.
      const Map test = random_map(universe, t % 50 == 0 ? 0.3 : 0.002, rng);
      const std::size_t fresh = count_new_reference(test, expected);
      expected.merge(test);
      ASSERT_EQ(acc.absorb(test), fresh) << "universe " << universe << " test " << t;
      ASSERT_EQ(acc.global(), expected);
    }
    EXPECT_EQ(acc.covered(), expected.count());
  }
}

// --- Accumulator -----------------------------------------------------------------

TEST(Accumulator, AbsorbReturnsFreshCount) {
  Accumulator acc(100);
  Map t1(100);
  t1.set(1);
  t1.set(2);
  EXPECT_EQ(acc.absorb(t1), 2u);
  Map t2(100);
  t2.set(2);
  t2.set(3);
  EXPECT_EQ(acc.absorb(t2), 1u);
  EXPECT_EQ(acc.covered(), 3u);
}

TEST(Accumulator, FractionAndUniverse) {
  Accumulator acc(200);
  EXPECT_DOUBLE_EQ(acc.fraction(), 0.0);
  Map t(200);
  for (PointId i = 0; i < 50; ++i) {
    t.set(i);
  }
  acc.absorb(t);
  EXPECT_DOUBLE_EQ(acc.fraction(), 0.25);
  EXPECT_EQ(acc.universe(), 200u);
}

TEST(Accumulator, EmptyUniverseFractionIsZero) {
  Accumulator acc(0);
  EXPECT_DOUBLE_EQ(acc.fraction(), 0.0);
}

// --- Context -----------------------------------------------------------------------

TEST(Context, RegistrationThenRuntime) {
  Context ctx;
  const PointId a = ctx.registry().add("a");
  const PointId arr = ctx.registry().add_array("arr", 8);
  ctx.freeze();
  ctx.begin_test();
  ctx.hit(a);
  ctx.hit(arr, 5);
  EXPECT_EQ(ctx.test_map().count(), 2u);
  EXPECT_TRUE(ctx.test_map().test(arr + 5));
  ctx.begin_test();
  EXPECT_TRUE(ctx.test_map().empty());
}

// --- GammaWindowMonitor --------------------------------------------------------------

TEST(Monitor, DepletesAfterGammaZeroGains) {
  GammaWindowMonitor m(3);
  EXPECT_FALSE(m.record(0));
  EXPECT_FALSE(m.record(0));
  EXPECT_TRUE(m.record(0));  // third consecutive zero
  EXPECT_TRUE(m.depleted());
}

TEST(Monitor, GainResetsStreak) {
  GammaWindowMonitor m(3);
  m.record(0);
  m.record(0);
  EXPECT_FALSE(m.record(5));  // gain breaks the streak
  EXPECT_EQ(m.zero_streak(), 0u);
  m.record(0);
  m.record(0);
  EXPECT_TRUE(m.record(0));
}

TEST(Monitor, ResetClearsState) {
  GammaWindowMonitor m(2);
  m.record(0);
  m.record(0);
  EXPECT_TRUE(m.depleted());
  m.reset();
  EXPECT_FALSE(m.depleted());
  EXPECT_EQ(m.zero_streak(), 0u);
}

TEST(Monitor, GammaZeroDisablesDepletion) {
  GammaWindowMonitor m(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(m.record(0));
  }
  EXPECT_FALSE(m.depleted());
}

class MonitorGammaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MonitorGammaSweep, DepletesExactlyAtGamma) {
  const std::size_t gamma = GetParam();
  GammaWindowMonitor m(gamma);
  for (std::size_t i = 0; i + 1 < gamma; ++i) {
    EXPECT_FALSE(m.record(0)) << "at " << i;
  }
  EXPECT_TRUE(m.record(0));
}

INSTANTIATE_TEST_SUITE_P(Gammas, MonitorGammaSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 50));

TEST_P(MonitorGammaSweep, GainAtBoundaryMinusOnePreventsDepletion) {
  // γ-1 zero-gain pulls followed by a gain must leave the arm alive: the
  // window is a *consecutive* streak, not a moving sum.
  const std::size_t gamma = GetParam();
  GammaWindowMonitor m(gamma);
  for (std::size_t i = 0; i + 1 < gamma; ++i) {
    ASSERT_FALSE(m.record(0));
  }
  EXPECT_FALSE(m.record(1));
  EXPECT_FALSE(m.depleted());
  EXPECT_EQ(m.zero_streak(), 0u);
  // The streak restarts from scratch: another γ-1 zeros still aren't enough.
  for (std::size_t i = 0; i + 1 < gamma; ++i) {
    EXPECT_FALSE(m.record(0)) << "post-gain pull " << i;
  }
  EXPECT_FALSE(m.depleted());
  EXPECT_TRUE(m.record(0));
  EXPECT_TRUE(m.depleted());
}

TEST(Monitor, DepletionEventsCountCrossingsOnce) {
  GammaWindowMonitor m(2);
  EXPECT_EQ(m.depletion_events(), 0u);
  m.record(0);
  m.record(0);  // streak crosses gamma: one event
  EXPECT_EQ(m.depletion_events(), 1u);
  EXPECT_TRUE(m.record(0));  // still depleted, but not a fresh event
  EXPECT_EQ(m.depletion_events(), 1u);
  m.reset();
  EXPECT_FALSE(m.depleted());
  // depletion_events survives reset() (lifetime statistic)...
  EXPECT_EQ(m.depletion_events(), 1u);
  m.record(0);
  m.record(0);
  EXPECT_EQ(m.depletion_events(), 2u);
}

TEST(Monitor, ObservationsTrackPullsAndClearOnReset) {
  GammaWindowMonitor m(3);
  m.record(0);
  m.record(7);
  m.record(0);
  EXPECT_EQ(m.observations(), 3u);
  m.reset();
  EXPECT_EQ(m.observations(), 0u);
  GammaWindowMonitor disabled(0);
  disabled.record(0);
  EXPECT_EQ(disabled.observations(), 1u);  // counted even when detection is off
}

}  // namespace
}  // namespace mabfuzz::coverage
