// Tests for the coverage group-summary reporting.

#include <gtest/gtest.h>

#include <stdexcept>

#include "coverage/summary.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::coverage {
namespace {

TEST(Summary, GroupsByStem) {
  Registry reg;
  reg.add_array("cache/hit", 4);
  reg.add("cache/flush");
  reg.add_array("btb/alloc", 2);
  Map covered(reg.size());
  covered.set(0);
  covered.set(1);
  covered.set(4);  // cache/flush

  const auto groups = summarize_groups(reg, covered);
  ASSERT_EQ(groups.size(), 3u);
  // Sorted by uncovered mass: cache/hit (2 uncovered), btb/alloc (2), flush (0).
  EXPECT_EQ(groups.back().group, "cache/flush");
  EXPECT_EQ(groups.back().covered, 1u);
  for (const auto& g : groups) {
    if (g.group == "cache/hit") {
      EXPECT_EQ(g.total, 4u);
      EXPECT_EQ(g.covered, 2u);
      EXPECT_DOUBLE_EQ(g.fraction(), 0.5);
    }
  }
}

TEST(Summary, UnitsCollapseAtFirstSlash) {
  Registry reg;
  reg.add_array("dcache/read_hit_set", 2);
  reg.add_array("dcache/write_hit_set", 2);
  reg.add("pipeline/wild_jump");
  Map covered(reg.size());

  const auto units = summarize_units(reg, covered);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].group, "dcache");
  EXPECT_EQ(units[0].total, 4u);
}

TEST(Summary, TotalsMatchUniverseOnRealCore) {
  const soc::Pipeline dut(soc::core_params(soc::CoreKind::kRocket,
                                           soc::BugSet::none()));
  Map covered(dut.coverage_universe());
  std::size_t total = 0;
  for (const auto& g : summarize_groups(dut.registry(), covered)) {
    total += g.total;
    EXPECT_EQ(g.covered, 0u);
  }
  EXPECT_EQ(total, dut.coverage_universe());
}

TEST(Summary, ArrayPointsShareTheirRegisteredNamesGroups) {
  Registry reg;
  reg.add_array("flat", 2);
  reg.add_array("unit/part", 3);
  Map covered(reg.size());
  covered.set(1);
  covered.set(3);

  const auto units = summarize_units(reg, covered);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].group, "unit");
  EXPECT_EQ(units[0].total, 3u);
  EXPECT_EQ(units[0].covered, 1u);
  EXPECT_EQ(units[1].group, "flat");
  EXPECT_EQ(units[1].total, 2u);
  EXPECT_EQ(units[1].covered, 1u);
  const auto groups = summarize_groups(reg, covered);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].group, "unit/part");
  EXPECT_EQ(groups[1].group, "flat");
}

TEST(Registry, NamesAreBuiltOnDemand) {
  Registry reg;
  EXPECT_EQ(reg.add("single"), 0u);
  EXPECT_EQ(reg.add_array("arr", 3), 1u);
  EXPECT_EQ(reg.add_array("none", 0), 4u);
  EXPECT_EQ(reg.add("tail"), 4u);
  EXPECT_EQ(reg.size(), 5u);
  EXPECT_EQ(reg.entries().size(), 3u);
  EXPECT_EQ(reg.name(0), "single");
  EXPECT_EQ(reg.name(1), "arr[0]");
  EXPECT_EQ(reg.name(3), "arr[2]");
  EXPECT_EQ(reg.name(4), "tail");
  EXPECT_THROW((void)reg.name(5), std::out_of_range);
}

TEST(Summary, EmptyRegistry) {
  Registry reg;
  Map covered(0);
  EXPECT_TRUE(summarize_groups(reg, covered).empty());
  EXPECT_TRUE(summarize_units(reg, covered).empty());
}

}  // namespace
}  // namespace mabfuzz::coverage
