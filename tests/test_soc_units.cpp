// Substrate unit tests: caches (including write-back data behaviour, the
// V4 dropped-writeback gate, the D$ presence filter and the I$ last-line
// shortcut), branch predictor, scoreboard, ROB, CSR unit and decode unit
// (including the decode-plan cache).

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "coverage/context.hpp"
#include "golden/memory.hpp"
#include "isa/builder.hpp"
#include "isa/decoder.hpp"
#include "isa/encoder.hpp"
#include "isa/platform.hpp"
#include "soc/cache.hpp"
#include "soc/cores.hpp"
#include "soc/csr_unit.hpp"
#include "soc/decode_unit.hpp"
#include "soc/predictor.hpp"
#include "soc/rob.hpp"
#include "soc/scoreboard.hpp"

namespace mabfuzz::soc {
namespace {

using isa::kDramBase;

// --- InstructionCache ----------------------------------------------------------

class ICacheTest : public ::testing::Test {
 protected:
  ICacheTest() : icache_(CacheParams{4, 2, 32}, ctx_) { ctx_.freeze(); }
  coverage::Context ctx_;
  InstructionCache icache_;
};

TEST_F(ICacheTest, MissThenHit) {
  ctx_.begin_test();
  EXPECT_FALSE(icache_.access(kDramBase, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase + 28, ctx_));  // same line
  EXPECT_FALSE(icache_.access(kDramBase + 32, ctx_)); // next line
}

TEST_F(ICacheTest, LruEviction) {
  ctx_.begin_test();
  const std::uint64_t set_stride = 4 * 32;  // sets * line_bytes
  icache_.access(kDramBase, ctx_);                   // way 0
  icache_.access(kDramBase + set_stride, ctx_);      // way 1
  icache_.access(kDramBase, ctx_);                   // touch way 0
  icache_.access(kDramBase + 2 * set_stride, ctx_);  // evicts way 1 (LRU)
  EXPECT_TRUE(icache_.access(kDramBase, ctx_));
  EXPECT_FALSE(icache_.access(kDramBase + set_stride, ctx_));
}

TEST_F(ICacheTest, InvalidateAllFlushes) {
  ctx_.begin_test();
  icache_.access(kDramBase, ctx_);
  icache_.invalidate_all(ctx_);
  EXPECT_FALSE(icache_.access(kDramBase, ctx_));
}

// The last-line shortcut: a fetch from the line of the previous access is
// a hit without a way probe. It must not outlive the line.
TEST_F(ICacheTest, SameLineMissesAfterConflictingFill) {
  ctx_.begin_test();
  const std::uint64_t set_stride = 4 * 32;
  EXPECT_FALSE(icache_.access(kDramBase, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase + 4, ctx_));                // shortcut
  EXPECT_FALSE(icache_.access(kDramBase + set_stride, ctx_));      // way 1
  EXPECT_FALSE(icache_.access(kDramBase + 2 * set_stride, ctx_));  // evicts line 0
  EXPECT_FALSE(icache_.access(kDramBase + 8, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase + 12, ctx_));
}

TEST_F(ICacheTest, SameLineMissesAfterInvalidateAllAndReset) {
  ctx_.begin_test();
  EXPECT_FALSE(icache_.access(kDramBase, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase + 4, ctx_));
  icache_.invalidate_all(ctx_);
  EXPECT_FALSE(icache_.access(kDramBase + 8, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase + 12, ctx_));
  icache_.reset();
  EXPECT_FALSE(icache_.access(kDramBase + 16, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase + 20, ctx_));
}

TEST_F(ICacheTest, ShortcutHitsKeepLruOrder) {
  ctx_.begin_test();
  const std::uint64_t set_stride = 4 * 32;
  icache_.access(kDramBase, ctx_);               // way 0
  icache_.access(kDramBase + 4, ctx_);           // shortcut hit on way 0
  icache_.access(kDramBase + set_stride, ctx_);  // way 1
  EXPECT_TRUE(icache_.access(kDramBase + 8, ctx_));   // probe hit on way 0
  EXPECT_TRUE(icache_.access(kDramBase + 12, ctx_));  // shortcut hit on way 0
  // Way 1 is least recently used, so it is the victim.
  EXPECT_FALSE(icache_.access(kDramBase + 2 * set_stride, ctx_));
  EXPECT_TRUE(icache_.access(kDramBase + 16, ctx_));
  EXPECT_FALSE(icache_.access(kDramBase + set_stride, ctx_));
}

// The shortcut also hits the same coverage points as a probe.
TEST(ICacheShortcut, CoverageMatchesAFreshProbe) {
  coverage::Context warm_ctx;
  coverage::Context cold_ctx;
  InstructionCache warm(CacheParams{4, 2, 32}, warm_ctx);
  InstructionCache cold(CacheParams{4, 2, 32}, cold_ctx);
  warm_ctx.freeze();
  cold_ctx.freeze();
  warm_ctx.begin_test();
  cold_ctx.begin_test();
  warm.access(kDramBase, warm_ctx);
  cold.access(kDramBase, cold_ctx);
  cold.access(kDramBase + 128, cold_ctx);  // same set: the next access probes
  cold.access(kDramBase + 128, cold_ctx);
  warm_ctx.begin_test();
  cold_ctx.begin_test();
  EXPECT_TRUE(warm.access(kDramBase + 4, warm_ctx));  // shortcut
  EXPECT_TRUE(cold.access(kDramBase + 4, cold_ctx));  // probe
  EXPECT_EQ(warm_ctx.test_map(), cold_ctx.test_map());
  EXPECT_EQ(warm_ctx.test_map().count(), 1u);
}

// Steady-state snapshots (isa/loop_probe.hpp): every line, its set's LRU
// order and the last-line shortcut must be compared; LRU stamps must not.
TEST_F(ICacheTest, SnapshotComparesLinesLruOrderAndLastLine) {
  ctx_.begin_test();
  const std::uint64_t a = kDramBase;
  const std::uint64_t b = kDramBase + 4 * 32;  // set 0 as well
  const std::uint64_t c = kDramBase + 32;      // set 1
  icache_.access(a, ctx_);
  icache_.access(b, ctx_);
  icache_.access(c, ctx_);
  InstructionCache::Snapshot snapshot;
  icache_.capture(snapshot);
  EXPECT_TRUE(icache_.matches(snapshot));

  icache_.access(a, ctx_);  // set 0 order flips; the last line is c again
  icache_.access(c, ctx_);
  EXPECT_FALSE(icache_.matches(snapshot));
  icache_.access(b, ctx_);  // the captured order again, with newer stamps
  icache_.access(c, ctx_);
  EXPECT_TRUE(icache_.matches(snapshot));

  icache_.access(b, ctx_);  // same lines and order, last line b
  EXPECT_FALSE(icache_.matches(snapshot));
  icache_.access(kDramBase + 3 * 32, ctx_);  // one more valid line
  icache_.access(c, ctx_);
  EXPECT_FALSE(icache_.matches(snapshot));
}

// --- DataCache ------------------------------------------------------------------

class DCacheTest : public ::testing::Test {
 protected:
  DCacheTest()
      : memory_(kDramBase, 64 * 1024),
        dcache_(CacheParams{2, 2, 32}, ctx_, memory_.size()) {
    ctx_.freeze();
    ctx_.begin_test();
  }
  coverage::Context ctx_;
  golden::Memory memory_;
  DataCache dcache_;
};

TEST_F(DCacheTest, LoadFillsFromMemory) {
  memory_.store(kDramBase + 8, 0xabcd, 2);
  const auto r = dcache_.load(kDramBase + 8, 2, memory_, ctx_, false);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.value, 0xabcdu);
  const auto r2 = dcache_.load(kDramBase + 8, 2, memory_, ctx_, false);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.value, 0xabcdu);
}

TEST_F(DCacheTest, StoreIsWriteBack) {
  const auto w = dcache_.store(kDramBase, 0x55, 1, memory_, ctx_, false);
  EXPECT_TRUE(w.ok);
  // DRAM not yet updated (write-back).
  EXPECT_EQ(memory_.load(kDramBase, 1), 0ULL);
  // But the cache serves the new value.
  EXPECT_EQ(dcache_.load(kDramBase, 1, memory_, ctx_, false).value, 0x55u);
  // Flush writes it back.
  dcache_.flush_all(memory_, ctx_);
  EXPECT_EQ(memory_.load(kDramBase, 1), 0x55ULL);
}

TEST_F(DCacheTest, DirtyEvictionWritesBack) {
  const std::uint64_t set_stride = 2 * 32;
  dcache_.store(kDramBase, 0x11, 1, memory_, ctx_, false);
  // Fill both ways of set 0, then one more to evict the dirty line.
  dcache_.load(kDramBase + set_stride, 1, memory_, ctx_, false);
  const auto r = dcache_.load(kDramBase + 2 * set_stride, 1, memory_, ctx_, false);
  EXPECT_TRUE(r.dirty_eviction);
  EXPECT_FALSE(r.writeback_dropped);
  EXPECT_EQ(memory_.load(kDramBase, 1), 0x11ULL);
}

TEST_F(DCacheTest, V4DropsWritebackOfAliasedLines) {
  // kDramBase + 448 has address bits [8:6] all set: its writeback aliases
  // into a non-existent bank and is dropped.
  dcache_.store(kDramBase + 448, 0x22, 1, memory_, ctx_, true);  // aliased line
  dcache_.store(kDramBase, 0x11, 1, memory_, ctx_, true);        // normal line
  // Force both dirty set-0 lines out.
  const auto r1 = dcache_.load(kDramBase + 64, 1, memory_, ctx_, true);
  const auto r2 = dcache_.load(kDramBase + 128, 1, memory_, ctx_, true);
  EXPECT_TRUE(r1.dirty_eviction);
  EXPECT_TRUE(r1.writeback_dropped);   // +448 was LRU: dropped
  EXPECT_TRUE(r2.dirty_eviction);
  EXPECT_FALSE(r2.writeback_dropped);  // +0 writes back fine
  EXPECT_EQ(memory_.load(kDramBase, 1), 0x11ULL);
  EXPECT_EQ(memory_.load(kDramBase + 448, 1), 0x00ULL);  // stale
}

TEST_F(DCacheTest, WithoutBugAllWritebacksSurvive) {
  const std::uint64_t set_stride = 2 * 32;
  dcache_.store(kDramBase, 0x11, 1, memory_, ctx_, false);
  dcache_.store(kDramBase + set_stride, 0x22, 1, memory_, ctx_, false);
  dcache_.load(kDramBase + 2 * set_stride, 1, memory_, ctx_, false);
  dcache_.load(kDramBase + 3 * set_stride, 1, memory_, ctx_, false);
  EXPECT_EQ(memory_.load(kDramBase, 1), 0x11ULL);
  EXPECT_EQ(memory_.load(kDramBase + set_stride, 1), 0x22ULL);
}

TEST_F(DCacheTest, V4FlushStillWritesBackEverything) {
  // FENCE-initiated flushes use the full address path, not the broken
  // writeback decoder: they are never dropped.
  dcache_.store(kDramBase + 448, 0x33, 1, memory_, ctx_, true);  // aliased line
  dcache_.flush_all(memory_, ctx_);
  EXPECT_EQ(memory_.load(kDramBase + 448, 1), 0x33ULL);
}

TEST_F(DCacheTest, UnmappedAddressReported) {
  const auto r = dcache_.load(0x1000, 4, memory_, ctx_, false);
  EXPECT_FALSE(r.ok);
}

TEST_F(DCacheTest, SnoopSeesDirtyData) {
  dcache_.store(kDramBase + 4, 0xdeadbeef, 4, memory_, ctx_, false);
  std::uint64_t value = 0;
  ASSERT_TRUE(dcache_.snoop(kDramBase + 4, 4, value));
  EXPECT_EQ(value, 0xdeadbeefULL);
  EXPECT_FALSE(dcache_.snoop(kDramBase + 4096, 4, value));
}

// The presence filter (one bit per DRAM line) must track exactly the lines
// the ways hold: a stale set bit only costs a probe, but a stale clear bit
// would serve a fetch from DRAM while the D$ holds newer bytes.
TEST_F(DCacheTest, SnoopFollowsFillsAndConflictingEvictions) {
  const std::uint64_t set_stride = 2 * 32;
  const std::uint64_t line = kDramBase + set_stride;  // set 0
  memory_.store(line, 0x1234, 4);
  std::uint64_t value = 0;
  EXPECT_FALSE(dcache_.snoop(line, 4, value));

  dcache_.load(line, 4, memory_, ctx_, false);  // clean fill
  ASSERT_TRUE(dcache_.snoop(line, 4, value));   // clean lines serve fetches too
  EXPECT_EQ(value, 0x1234u);
  dcache_.store(line, 0xabcd, 4, memory_, ctx_, false);
  ASSERT_TRUE(dcache_.snoop(line, 4, value));
  EXPECT_EQ(value, 0xabcdu);

  // Two more set-0 lines: the second evicts `line` (LRU) with a writeback.
  dcache_.load(line + set_stride, 4, memory_, ctx_, false);
  const auto evict = dcache_.load(line + 2 * set_stride, 4, memory_, ctx_, false);
  EXPECT_TRUE(evict.dirty_eviction);
  EXPECT_FALSE(dcache_.snoop(line, 4, value));
  EXPECT_EQ(memory_.load(line, 4), 0xabcdULL);
  EXPECT_TRUE(dcache_.snoop(line + set_stride, 4, value));
  EXPECT_TRUE(dcache_.snoop(line + 2 * set_stride, 4, value));

  // The evicted line comes back on a refill.
  dcache_.load(line, 4, memory_, ctx_, false);
  ASSERT_TRUE(dcache_.snoop(line, 4, value));
  EXPECT_EQ(value, 0xabcdu);
  EXPECT_FALSE(dcache_.snoop(line + set_stride, 4, value));  // its victim
}

TEST_F(DCacheTest, SnoopAfterV4DroppedWriteback) {
  // Same eviction sequence as V4DropsWritebackOfAliasedLines.
  dcache_.store(kDramBase + 448, 0x22, 1, memory_, ctx_, true);  // aliased line
  dcache_.store(kDramBase, 0x11, 1, memory_, ctx_, true);
  std::uint64_t value = 0;
  ASSERT_TRUE(dcache_.snoop(kDramBase + 448, 1, value));
  EXPECT_EQ(value, 0x22u);
  const auto r1 = dcache_.load(kDramBase + 64, 1, memory_, ctx_, true);
  ASSERT_TRUE(r1.writeback_dropped);
  // The dropped line left the cache: the fetch sees stale DRAM.
  EXPECT_FALSE(dcache_.snoop(kDramBase + 448, 1, value));
  EXPECT_EQ(memory_.load(kDramBase + 448, 1), 0x00ULL);
  ASSERT_TRUE(dcache_.snoop(kDramBase, 1, value));
  EXPECT_EQ(value, 0x11u);
  dcache_.load(kDramBase + 128, 1, memory_, ctx_, true);  // evicts kDramBase
  EXPECT_FALSE(dcache_.snoop(kDramBase, 1, value));
  EXPECT_TRUE(dcache_.snoop(kDramBase + 64, 1, value));
  EXPECT_TRUE(dcache_.snoop(kDramBase + 128, 1, value));
}

TEST_F(DCacheTest, SnoopAfterFlushAllAndReset) {
  dcache_.store(kDramBase + 8, 0x5a5a, 2, memory_, ctx_, false);
  dcache_.flush_all(memory_, ctx_);  // writes back, keeps the line (clean)
  std::uint64_t value = 0;
  ASSERT_TRUE(dcache_.snoop(kDramBase + 8, 2, value));
  EXPECT_EQ(value, 0x5a5au);

  dcache_.reset();
  EXPECT_FALSE(dcache_.snoop(kDramBase + 8, 2, value));
  // A refill after the reset is seen again.
  dcache_.store(kDramBase + 8, 0x6b6b, 2, memory_, ctx_, false);
  ASSERT_TRUE(dcache_.snoop(kDramBase + 8, 2, value));
  EXPECT_EQ(value, 0x6b6bu);
}

TEST(DCachePresence, LinesOutsideTheFilterAreStillSnooped) {
  // The filter covers only the first 1 KiB of DRAM; the memory is larger.
  coverage::Context ctx;
  golden::Memory memory(kDramBase, 64 * 1024);
  DataCache dcache(CacheParams{2, 2, 32}, ctx, /*dram_size=*/1024);
  ctx.freeze();
  ctx.begin_test();
  dcache.store(kDramBase + 4096, 0x77, 1, memory, ctx, false);
  dcache.store(kDramBase + 64, 0x66, 1, memory, ctx, false);
  std::uint64_t value = 0;
  ASSERT_TRUE(dcache.snoop(kDramBase + 4096, 1, value));
  EXPECT_EQ(value, 0x77u);
  ASSERT_TRUE(dcache.snoop(kDramBase + 64, 1, value));
  EXPECT_EQ(value, 0x66u);
  EXPECT_FALSE(dcache.snoop(kDramBase + 8192, 1, value));
  dcache.reset();
  EXPECT_FALSE(dcache.snoop(kDramBase + 4096, 1, value));
  EXPECT_FALSE(dcache.snoop(kDramBase + 64, 1, value));
}

TEST_F(DCacheTest, PhysicalAliasesShareLines) {
  const std::uint64_t alias = 0xFFFFFFFF00000000ULL | kDramBase;
  dcache_.store(alias, 0x7f, 1, memory_, ctx_, false);
  EXPECT_EQ(dcache_.load(kDramBase, 1, memory_, ctx_, false).value, 0x7fu);
}

TEST_F(DCacheTest, SnapshotComparesDataDirtyLruOrderAndWritebackBuffer) {
  const std::uint64_t a = kDramBase;
  const std::uint64_t b = kDramBase + 2 * 32;  // set 0 as well
  dcache_.store(a, 0x11, 1, memory_, ctx_, false);
  dcache_.load(b, 1, memory_, ctx_, false);
  DataCache::Snapshot snapshot;
  dcache_.capture(snapshot);
  EXPECT_TRUE(dcache_.matches(snapshot));

  dcache_.store(a, 0x11, 1, memory_, ctx_, false);  // same bytes, order flips
  EXPECT_FALSE(dcache_.matches(snapshot));
  dcache_.load(b, 1, memory_, ctx_, false);  // the captured order again
  EXPECT_TRUE(dcache_.matches(snapshot));

  dcache_.store(a + 1, 0x22, 1, memory_, ctx_, false);  // new bytes in a
  dcache_.load(b, 1, memory_, ctx_, false);
  EXPECT_FALSE(dcache_.matches(snapshot));
  dcache_.capture(snapshot);
  dcache_.store(b, 0, 1, memory_, ctx_, false);  // b turns dirty, bytes unchanged
  EXPECT_FALSE(dcache_.matches(snapshot));

  // A dirty eviction arms the writeback buffer for three accesses; a hit on
  // the most recently used line changes nothing else.
  dcache_.load(kDramBase + 4 * 32, 1, memory_, ctx_, false);
  dcache_.load(kDramBase + 4 * 32, 1, memory_, ctx_, false);
  dcache_.capture(snapshot);
  dcache_.load(kDramBase + 4 * 32, 1, memory_, ctx_, false);
  EXPECT_FALSE(dcache_.matches(snapshot));
}

// --- BranchPredictor ---------------------------------------------------------------

class PredictorTest : public ::testing::Test {
 protected:
  PredictorTest() : predictor_(PredictorParams{16}, ctx_) {
    ctx_.freeze();
    ctx_.begin_test();
  }
  coverage::Context ctx_;
  BranchPredictor predictor_;
};

TEST_F(PredictorTest, ColdMiss) {
  EXPECT_FALSE(predictor_.predict(kDramBase, ctx_).btb_hit);
}

TEST_F(PredictorTest, LearnsTakenBranch) {
  for (int i = 0; i < 3; ++i) {
    const auto p = predictor_.predict(kDramBase, ctx_);
    predictor_.update(kDramBase, true, p.predict_taken != true, ctx_);
  }
  const auto p = predictor_.predict(kDramBase, ctx_);
  EXPECT_TRUE(p.btb_hit);
  EXPECT_TRUE(p.predict_taken);
}

TEST_F(PredictorTest, CounterHysteresis) {
  // Train strongly taken, then one not-taken must not flip the prediction.
  for (int i = 0; i < 4; ++i) {
    predictor_.update(kDramBase, true, false, ctx_);
  }
  predictor_.update(kDramBase, false, true, ctx_);
  EXPECT_TRUE(predictor_.predict(kDramBase, ctx_).predict_taken);
}

TEST_F(PredictorTest, ResetForgets) {
  predictor_.update(kDramBase, true, false, ctx_);
  predictor_.reset();
  EXPECT_FALSE(predictor_.predict(kDramBase, ctx_).btb_hit);
}

TEST_F(PredictorTest, SnapshotComparesValidEntries) {
  predictor_.update(kDramBase, true, false, ctx_);  // allocated, weakly taken
  BranchPredictor::Snapshot snapshot;
  predictor_.capture(snapshot);
  EXPECT_TRUE(predictor_.matches(snapshot));
  predictor_.update(kDramBase, true, false, ctx_);  // counter moves
  EXPECT_FALSE(predictor_.matches(snapshot));
  predictor_.capture(snapshot);
  predictor_.update(kDramBase, true, false, ctx_);  // saturated: no change
  EXPECT_TRUE(predictor_.matches(snapshot));
  predictor_.update(kDramBase + 4, false, false, ctx_);  // a new valid entry
  EXPECT_FALSE(predictor_.matches(snapshot));
}

// --- Scoreboard -----------------------------------------------------------------------

class ScoreboardTest : public ::testing::Test {
 protected:
  ScoreboardTest() : sb_(ctx_) {
    ctx_.freeze();
    ctx_.begin_test();
  }
  coverage::Context ctx_;
  Scoreboard sb_;
};

TEST_F(ScoreboardTest, ReadyRegisterNoStall) {
  EXPECT_EQ(sb_.check_read(5, 100, ctx_), 0u);
}

TEST_F(ScoreboardTest, RawHazardStalls) {
  sb_.mark_write(5, 110, ctx_);
  EXPECT_EQ(sb_.check_read(5, 100, ctx_), 10u);
}

TEST_F(ScoreboardTest, BypassOneCycleAway) {
  sb_.mark_write(5, 101, ctx_);
  EXPECT_EQ(sb_.check_read(5, 100, ctx_), 0u);  // forwarded
}

TEST_F(ScoreboardTest, X0NeverHazards) {
  sb_.mark_write(0, 1000, ctx_);
  EXPECT_EQ(sb_.check_read(0, 0, ctx_), 0u);
}

TEST_F(ScoreboardTest, FlushClears) {
  sb_.mark_write(7, 1000, ctx_);
  sb_.flush();
  EXPECT_EQ(sb_.check_read(7, 0, ctx_), 0u);
}

TEST_F(ScoreboardTest, SnapshotComparesWaitsNotCycles) {
  sb_.mark_write(5, 110, ctx_);
  sb_.mark_write(6, 95, ctx_);  // done by cycle 100: reads like a free register
  Scoreboard::Snapshot snapshot;
  sb_.capture(100, snapshot);
  EXPECT_TRUE(sb_.matches(snapshot, 100));
  EXPECT_FALSE(sb_.matches(snapshot, 101));  // x5 waits 9 cycles, not 10
  sb_.delay(50);
  EXPECT_TRUE(sb_.matches(snapshot, 150));
  sb_.mark_write(7, 152, ctx_);  // one more live writer
  EXPECT_FALSE(sb_.matches(snapshot, 150));
}

// --- ReorderBuffer ----------------------------------------------------------------------

class RobTest : public ::testing::Test {
 protected:
  RobTest() : rob_(4, ctx_) {
    ctx_.freeze();
    ctx_.begin_test();
  }
  coverage::Context ctx_;
  ReorderBuffer rob_;
};

TEST_F(RobTest, AllocateRetireOccupancy) {
  rob_.allocate(ctx_);
  rob_.allocate(ctx_);
  EXPECT_EQ(rob_.occupancy(), 2u);
  rob_.retire(ctx_);
  EXPECT_EQ(rob_.occupancy(), 1u);
}

TEST_F(RobTest, FullBackpressureRetiresOldest) {
  for (int i = 0; i < 5; ++i) {
    rob_.allocate(ctx_);
  }
  EXPECT_LE(rob_.occupancy(), 4u);
}

TEST_F(RobTest, FlushEmpties) {
  rob_.allocate(ctx_);
  rob_.allocate(ctx_);
  rob_.flush(ctx_);
  EXPECT_EQ(rob_.occupancy(), 0u);
}

TEST_F(RobTest, SnapshotIgnoresEmptyPointersOnceEverySlotIsCovered) {
  ReorderBuffer::Snapshot snapshot;
  rob_.capture(snapshot);  // empty, pointers at slot 0
  rob_.dispatch_retire(ctx_);
  EXPECT_FALSE(rob_.matches(snapshot, ctx_.test_map()));  // slots 1-3 uncovered
  for (int i = 0; i < 4; ++i) {
    rob_.dispatch_retire(ctx_);
  }
  EXPECT_TRUE(rob_.matches(snapshot, ctx_.test_map()));  // pointers at slot 1
  rob_.allocate(ctx_);
  EXPECT_FALSE(rob_.matches(snapshot, ctx_.test_map()));  // not empty
}

TEST(RobDisabled, ZeroSlotsIsNoop) {
  coverage::Context ctx;
  ReorderBuffer rob(0, ctx);
  ctx.freeze();
  ctx.begin_test();
  rob.allocate(ctx);
  rob.retire(ctx);
  rob.flush(ctx);
  EXPECT_FALSE(rob.enabled());
  EXPECT_EQ(ctx.test_map().count(), 0u);
}

// --- CsrUnit -------------------------------------------------------------------------------

class CsrUnitTest : public ::testing::Test {
 protected:
  CsrUnitTest() : csrs_(golden::CsrIdentity{}, BugSet::none(), ctx_) {
    ctx_.freeze();
    ctx_.begin_test();
  }
  CsrUnit::AccessOutcome do_csrrw(isa::CsrAddr addr, std::uint64_t value,
                                  CsrUnit& unit) {
    const isa::Instruction instr = isa::csrrw(1, addr, 2);
    return unit.access(instr, value, /*write_form=*/true,
                       /*performs_write=*/true, /*instret=*/1, ctx_);
  }
  coverage::Context ctx_;
  CsrUnit csrs_;
};

TEST_F(CsrUnitTest, MirrorsGoldenSemantics) {
  const auto w = do_csrrw(isa::csr::kMscratch, 0x1234, csrs_);
  EXPECT_FALSE(w.illegal);
  EXPECT_EQ(w.old_value, 0u);
  EXPECT_EQ(csrs_.mscratch(), 0x1234u);
}

TEST_F(CsrUnitTest, UnimplementedIsIllegalWithoutV6) {
  const auto r = do_csrrw(0x7C5, 1, csrs_);
  EXPECT_TRUE(r.illegal);
  EXPECT_FALSE(r.v6_fired);
}

TEST_F(CsrUnitTest, V6WindowMembership) {
  EXPECT_TRUE(CsrUnit::in_v6_window(0x7C0));
  EXPECT_TRUE(CsrUnit::in_v6_window(0x7FF));
  EXPECT_TRUE(CsrUnit::in_v6_window(0xB10));
  EXPECT_FALSE(CsrUnit::in_v6_window(0xB00));  // mcycle: implemented
  EXPECT_FALSE(CsrUnit::in_v6_window(0x123));
}

TEST(CsrUnitBug, V6ReturnsXValueWithoutTrap) {
  coverage::Context ctx;
  CsrUnit csrs(golden::CsrIdentity{}, BugSet::single(BugId::kV6CsrXValue), ctx);
  ctx.freeze();
  ctx.begin_test();
  const isa::Instruction instr = isa::csrrs(1, 0x7C5, 0);
  const auto r = csrs.access(instr, 0, false, false, 1, ctx);
  EXPECT_FALSE(r.illegal);
  EXPECT_TRUE(r.v6_fired);
  EXPECT_EQ(r.old_value, CsrUnit::x_value(0x7C5));
  EXPECT_NE(CsrUnit::x_value(0x7C5), CsrUnit::x_value(0x7C6));
}

// --- DecodeUnit ----------------------------------------------------------------------------

class DecodeUnitTest : public ::testing::Test {
 protected:
  DecodeUnitTest()
      : decode_(DecodeUnitParams{1, 8, 256}, BugSet::none(), ctx_) {
    ctx_.freeze();
    ctx_.begin_test();
  }
  coverage::Context ctx_;
  DecodeUnit decode_;
};

TEST_F(DecodeUnitTest, LegalInstructionDecodes) {
  const auto out = decode_.decode(isa::encode_or_die(isa::addi(1, 2, 3)), 0, ctx_);
  EXPECT_TRUE(out.legal);
  EXPECT_EQ(out.instr.mnemonic, isa::Mnemonic::kAddi);
  EXPECT_GT(ctx_.test_map().count(), 0u);
}

TEST_F(DecodeUnitTest, IllegalStaysIllegalWithoutBugs) {
  isa::Word w = isa::encode_or_die(isa::add(1, 2, 3));
  w = static_cast<isa::Word>(common::insert_bits(w, 25, 7, 0b1010000));
  const auto out = decode_.decode(w, 0, ctx_);
  EXPECT_FALSE(out.legal);
  EXPECT_FALSE(out.v2_illegal_executed);
}

TEST_F(DecodeUnitTest, FpuPredecodeHitsOnFpOpcodes) {
  ctx_.begin_test();
  const isa::Word fp_word = 0b1010011;  // OP-FP, everything else zero
  decode_.decode(fp_word, 0, ctx_);
  EXPECT_GT(ctx_.test_map().count(), 0u);
}

TEST(DecodeUnitBug, V1FenceIWithRdFires) {
  coverage::Context ctx;
  DecodeUnit decode(DecodeUnitParams{1, 8, 0},
                    BugSet::single(BugId::kV1FenceIDecode), ctx);
  ctx.freeze();
  ctx.begin_test();
  isa::Word w = isa::encode_or_die(isa::fence_i());
  w = isa::set_rd(w, 9);
  const auto out = decode.decode(w, 0, ctx);
  EXPECT_TRUE(out.legal);
  EXPECT_TRUE(out.v1_spurious_rd_write);
  EXPECT_EQ(out.v1_rd, 9);

  // Canonical fence.i (rd = 0) must NOT fire.
  const auto ok = decode.decode(isa::encode_or_die(isa::fence_i()), 0, ctx);
  EXPECT_FALSE(ok.v1_spurious_rd_write);
}

TEST(DecodeUnitBug, V2ExecutesReservedFunct7) {
  coverage::Context ctx;
  DecodeUnit decode(DecodeUnitParams{1, 8, 0},
                    BugSet::single(BugId::kV2IllegalOpExec), ctx);
  ctx.freeze();
  ctx.begin_test();
  // ADDW with a reserved funct7 bit set (not SUBW, not MULDIV).
  isa::Word w = isa::encode_or_die(isa::addw(3, 1, 2));
  w = static_cast<isa::Word>(common::insert_bits(w, 25, 7, 0b1000000));
  ASSERT_TRUE(DecodeUnit::v2_candidate(w));
  const auto out = decode.decode(w, 0, ctx);
  EXPECT_TRUE(out.legal);
  EXPECT_TRUE(out.v2_illegal_executed);
  EXPECT_EQ(out.instr.mnemonic, isa::Mnemonic::kAddw);
}

// --- Decode plans ------------------------------------------------------------------------
//
// The pre-decoded overload replays a cached per-word plan with the lane's
// point offsets. It must agree with the uncached per-word reference on the
// outcome and on every coverage bit, for every core, bug set and lane,
// including after a slot was refilled by a colliding word.

/// Words that reach every decode path: random bits, each major opcode
/// (FP/SIMD ones included) with random fields, FENCE.I with rd set (V1)
/// and reserved OP-32 funct7 encodings (V2). Four times as many distinct
/// words as the plan table has slots, so slots are refilled many times.
std::vector<isa::Word> plan_stream() {
  constexpr isa::Word kMajors[] = {0b0000011, 0b0001111, 0b0010011, 0b0010111,
                                   0b0011011, 0b0100011, 0b0110011, 0b0110111,
                                   0b0111011, 0b1100011, 0b1100111, 0b1101111,
                                   0b1110011, 0b1010011, 0b0000111, 0b0100111,
                                   0b1000011};
  common::Xoshiro256StarStar rng(2024);
  std::vector<isa::Word> words = {0, isa::encode_or_die(isa::fence_i())};
  while (words.size() < 4 * DecodeUnit::kPlanSlots) {
    auto word = static_cast<isa::Word>(rng.next());
    switch (rng.next_below(4)) {
      case 0:
        break;
      case 1:
      case 2:
        word = (word & ~0x7fu) | kMajors[rng.next_index(std::size(kMajors))];
        break;
      default:
        if (rng.next_bool(0.5)) {
          word = isa::set_rd(isa::encode_or_die(isa::fence_i()),
                             static_cast<isa::RegIndex>(rng.next_below(32)));
        } else {
          word = static_cast<isa::Word>(common::insert_bits(
              isa::encode_or_die(isa::addw(static_cast<isa::RegIndex>(rng.next_below(32)),
                                           static_cast<isa::RegIndex>(rng.next_below(32)),
                                           static_cast<isa::RegIndex>(rng.next_below(32)))),
              25, 7, rng.next_below(128)));
        }
        break;
    }
    words.push_back(word);
  }
  // Replay the stream backwards: early words were evicted by later
  // colliders, late ones still hit.
  words.insert(words.end(), words.rbegin(), words.rend());
  return words;
}

TEST(DecodePlan, CachedPlanMatchesUncachedReference) {
  const std::vector<isa::Word> words = plan_stream();
  for (const CoreKind kind : kAllCores) {
    const std::pair<const char*, BugSet> bug_sets[] = {
        {"none", BugSet::none()}, {"default", default_bugs(kind)}, {"all", BugSet::all()}};
    for (const auto& [label, bugs] : bug_sets) {
      SCOPED_TRACE(std::string(core_name(kind)) + ", bugs " + label);
      const DecodeUnitParams params = core_params(kind, bugs).decode;
      coverage::Context ref_ctx;
      coverage::Context plan_ctx;
      DecodeUnit reference(params, bugs, ref_ctx);
      DecodeUnit planned(params, bugs, plan_ctx);
      ref_ctx.freeze();
      plan_ctx.freeze();
      std::size_t legal = 0;
      for (const isa::Word word : words) {
        const isa::DecodeResult strict = isa::decode(word);
        for (unsigned lane = 0; lane < params.lanes; ++lane) {
          ref_ctx.begin_test();
          plan_ctx.begin_test();
          const DecodeUnit::Outcome expected = reference.decode(word, lane, ref_ctx);
          const DecodeUnit::Outcome& got = planned.decode(word, strict, lane, plan_ctx);
          ASSERT_EQ(got, expected) << "word " << word << " lane " << lane;
          ASSERT_EQ(plan_ctx.test_map(), ref_ctx.test_map())
              << "coverage of word " << word << " lane " << lane;
          legal += expected.legal ? 1 : 0;
        }
      }
      // The stream exercises both outcomes.
      EXPECT_GT(legal, words.size() / 8);
      EXPECT_LT(legal, words.size() * params.lanes);
    }
  }
}

}  // namespace
}  // namespace mabfuzz::soc
