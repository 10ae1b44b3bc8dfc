// Injected-bug validation: for each of V1-V7, a directed trigger program
// must (a) fire the bug's gate, (b) produce a golden-model mismatch, and
// (c) produce NO mismatch when the bug is disabled. This proves detection
// comes from differential testing, not from the gate itself.

#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "fuzz/oracle.hpp"
#include "golden/iss.hpp"
#include "isa/builder.hpp"
#include "isa/encoder.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::soc {
namespace {

using namespace isa;  // builders

struct TriggerOutcome {
  bool fired = false;
  bool mismatch = false;
  std::string description;
};

TriggerOutcome run_trigger(CoreKind kind, BugSet bugs, BugId bug,
                           const std::vector<Word>& program) {
  Pipeline dut(core_params(kind, bugs));
  golden::Iss iss(golden_config_for(kind));
  const RunOutput dut_out = dut.run(program);
  const ArchResult golden_out = iss.run(program);
  TriggerOutcome out;
  for (const BugFiring& f : dut_out.firings) {
    out.fired |= f.id == bug;
  }
  if (const auto mismatch = fuzz::compare(dut_out.arch, golden_out)) {
    out.mismatch = true;
    out.description = fuzz::describe(*mismatch);
  }
  return out;
}

void expect_detected_and_gated(CoreKind kind, BugId bug,
                               const std::vector<Word>& program) {
  const auto with_bug = run_trigger(kind, BugSet::single(bug), bug, program);
  EXPECT_TRUE(with_bug.fired) << bug_info(bug).name << " gate did not fire";
  EXPECT_TRUE(with_bug.mismatch)
      << bug_info(bug).name << " fired but caused no architectural mismatch";

  const auto without = run_trigger(kind, BugSet::none(), bug, program);
  EXPECT_FALSE(without.fired);
  EXPECT_FALSE(without.mismatch)
      << "clean core mismatched: " << without.description;
}

// --- V1: FENCE.I decoded incorrectly ------------------------------------------

std::vector<Word> v1_trigger() {
  std::vector<Word> program = assemble({li(1, 5)});
  Word w = encode_or_die(fence_i());
  w = set_rd(w, 7);  // non-canonical rd bits
  program.push_back(w);
  program.push_back(encode_or_die(add(2, 7, 0)));  // observe x7
  return program;
}

TEST(BugV1, FenceIWithRdBitsDetected) {
  expect_detected_and_gated(CoreKind::kCva6, BugId::kV1FenceIDecode, v1_trigger());
}

TEST(BugV1, CanonicalFenceIDoesNotFire) {
  const auto out = run_trigger(CoreKind::kCva6,
                               BugSet::single(BugId::kV1FenceIDecode),
                               BugId::kV1FenceIDecode, assemble({fence_i()}));
  EXPECT_FALSE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

// --- V2: illegal instructions execute ------------------------------------------

std::vector<Word> v2_trigger() {
  std::vector<Word> program = assemble({li(1, 3), li(2, 4)});
  Word w = encode_or_die(addw(3, 1, 2));
  w = static_cast<Word>(common::insert_bits(w, 25, 7, 0b1000000));  // reserved
  program.push_back(w);
  return program;
}

TEST(BugV2, ReservedFunct7Detected) {
  expect_detected_and_gated(CoreKind::kCva6, BugId::kV2IllegalOpExec, v2_trigger());
}

TEST(BugV2, LegalEncodingsUnaffected) {
  const auto out =
      run_trigger(CoreKind::kCva6, BugSet::single(BugId::kV2IllegalOpExec),
                  BugId::kV2IllegalOpExec, assemble({addw(3, 1, 2)}));
  EXPECT_FALSE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

TEST(BugV2, OpSpaceNotAffected) {
  // The comparator fault is in the OP-32 rows; plain OP reserved encodings
  // still trap on both sides.
  std::vector<Word> program = assemble({li(1, 3)});
  Word w = encode_or_die(add(3, 1, 1));
  w = static_cast<Word>(common::insert_bits(w, 25, 7, 0b0010000));
  program.push_back(w);
  const auto out = run_trigger(CoreKind::kCva6,
                               BugSet::single(BugId::kV2IllegalOpExec),
                               BugId::kV2IllegalOpExec, program);
  EXPECT_FALSE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

// --- V3: exception cause overwritten by queued pre-decode exception ---------------

std::vector<Word> v3_trigger() {
  // A load access fault (cause 5) with an illegal word within the 3-deep
  // fetch queue ahead of it; buggy cause becomes illegal-instruction (2).
  std::vector<Word> program = assemble({li(1, 64), lw(2, 1, 0)});
  // Queued mis-encoded LOAD (funct3=111 is reserved): opcode 0x03 | f3 111.
  program.push_back(0x00007003);
  program.push_back(encode_or_die(jal(0, 0)));
  return program;
}

TEST(BugV3, QueuedExceptionOverwritesCause) {
  expect_detected_and_gated(CoreKind::kCva6, BugId::kV3ExcQueueCause, v3_trigger());
}

TEST(BugV3, NoQueuedIllegalNoFiring) {
  const auto out = run_trigger(
      CoreKind::kCva6, BugSet::single(BugId::kV3ExcQueueCause),
      BugId::kV3ExcQueueCause, assemble({li(1, 64), lw(2, 1, 0), nop(), nop()}));
  EXPECT_FALSE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

TEST(BugV3, NonMemoryIllegalWordDoesNotRace) {
  // An illegal word outside the LOAD/STORE pre-decode path does not reach
  // the queue's exception slot.
  std::vector<Word> program = assemble({li(1, 64), lw(2, 1, 0)});
  program.push_back(0xffffffff);
  const auto out = run_trigger(CoreKind::kCva6,
                               BugSet::single(BugId::kV3ExcQueueCause),
                               BugId::kV3ExcQueueCause, program);
  EXPECT_FALSE(out.fired);
}

// --- V4: lost writeback under back-to-back dirty evictions -------------------------

std::vector<Word> v4_trigger() {
  // CVA6 D$: 2 sets x 1 way, 32B lines -> set stride 64B. Scratch+448 has
  // address bits [8:6] set (the broken bank-decode pattern): dirty it,
  // evict it (writeback dropped), reload it and observe the stale value.
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  return assemble({
      lui(1, scratch),
      li(2, 0x22), sd(1, 2, 448),  // aliased line B dirty
      ld(4, 1, 384),               // same-set line C: evicts B, wb DROPPED
      ld(5, 1, 448),               // reload B: stale 0, golden sees 0x22
  });
}

TEST(BugV4, LostWritebackDetected) {
  expect_detected_and_gated(CoreKind::kCva6, BugId::kV4LostWriteback, v4_trigger());
}

TEST(BugV4, NonAliasedLinesWriteBackFine) {
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  const auto program = assemble({
      lui(1, scratch),
      li(2, 0x11), sd(1, 2, 0),     // normal line dirty
      ld(3, 1, 128), ld(4, 1, 256),  // evict it (writeback survives)
      ld(5, 1, 0),
  });
  const auto out = run_trigger(CoreKind::kCva6,
                               BugSet::single(BugId::kV4LostWriteback),
                               BugId::kV4LostWriteback, program);
  EXPECT_FALSE(out.mismatch);
}

// --- V5: silent load fault -----------------------------------------------------------

TEST(BugV5, SilentLoadFaultDetected) {
  expect_detected_and_gated(CoreKind::kCva6, BugId::kV5SilentLoadFault,
                            assemble({li(1, 64), lw(2, 1, 0)}));
}

TEST(BugV5, StoresStillFault) {
  // V5 affects loads only; a bad store must still trap identically.
  const auto out = run_trigger(CoreKind::kCva6,
                               BugSet::single(BugId::kV5SilentLoadFault),
                               BugId::kV5SilentLoadFault,
                               assemble({li(1, 64), sw(1, 2, 0)}));
  EXPECT_FALSE(out.mismatch);
}

// --- V6: unimplemented CSR X-values ---------------------------------------------------

TEST(BugV6, CustomRangeCsrDetected) {
  expect_detected_and_gated(CoreKind::kCva6, BugId::kV6CsrXValue,
                            assemble({csrrs(1, 0x7C3, 0)}));
}

TEST(BugV6, ImplementedCsrsUnaffected) {
  const auto out = run_trigger(
      CoreKind::kCva6, BugSet::single(BugId::kV6CsrXValue), BugId::kV6CsrXValue,
      assemble({csrrs(1, csr::kMscratch, 0), csrrs(2, csr::kMinstret, 0)}));
  EXPECT_FALSE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

TEST(BugV6, OutsideWindowStillTraps) {
  // 0x123 is unimplemented but outside the X-value window: traps on both.
  const auto out = run_trigger(CoreKind::kCva6,
                               BugSet::single(BugId::kV6CsrXValue),
                               BugId::kV6CsrXValue, assemble({csrrs(1, 0x123, 0)}));
  EXPECT_FALSE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

// --- V7: EBREAK does not count in minstret ----------------------------------------------

std::vector<Word> v7_trigger() {
  return assemble({ebreak(), csrrs(1, csr::kMinstret, 0)});
}

TEST(BugV7, EbreakInstretDetected) {
  expect_detected_and_gated(CoreKind::kRocket, BugId::kV7EbreakInstret,
                            v7_trigger());
}

TEST(BugV7, WithoutCounterReadNoMismatch) {
  // The firing is architecturally silent until a counter read observes it —
  // this is what makes V7 an exploration-heavy target (paper Sec. IV-B).
  const auto out = run_trigger(CoreKind::kRocket,
                               BugSet::single(BugId::kV7EbreakInstret),
                               BugId::kV7EbreakInstret, assemble({ebreak(), nop()}));
  EXPECT_TRUE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

TEST(BugV7, EcallStillCounts) {
  const auto out = run_trigger(CoreKind::kRocket,
                               BugSet::single(BugId::kV7EbreakInstret),
                               BugId::kV7EbreakInstret,
                               assemble({ecall(), csrrs(1, csr::kMinstret, 0)}));
  EXPECT_FALSE(out.fired);
  EXPECT_FALSE(out.mismatch);
}

// --- bug metadata ---------------------------------------------------------------------------

TEST(BugTable, MetadataComplete) {
  EXPECT_EQ(all_bugs().size(), kNumBugs);
  for (const BugInfo& info : all_bugs()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.cwe.empty());
    EXPECT_TRUE(info.core == "cva6" || info.core == "rocket");
  }
  EXPECT_EQ(bug_info(BugId::kV7EbreakInstret).core, "rocket");
}

TEST(BugSetOps, EnableDisableQuery) {
  BugSet s;
  EXPECT_TRUE(s.empty());
  s.enable(BugId::kV3ExcQueueCause);
  EXPECT_TRUE(s.enabled(BugId::kV3ExcQueueCause));
  EXPECT_FALSE(s.enabled(BugId::kV4LostWriteback));
  s.disable(BugId::kV3ExcQueueCause);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(BugSet::all().enabled(BugId::kV7EbreakInstret), true);
}

TEST(DefaultBugs, MatchPaperTableI) {
  const BugSet cva6 = default_bugs(CoreKind::kCva6);
  for (const BugId id :
       {BugId::kV1FenceIDecode, BugId::kV2IllegalOpExec, BugId::kV3ExcQueueCause,
        BugId::kV4LostWriteback, BugId::kV5SilentLoadFault, BugId::kV6CsrXValue}) {
    EXPECT_TRUE(cva6.enabled(id));
  }
  EXPECT_FALSE(cva6.enabled(BugId::kV7EbreakInstret));
  EXPECT_TRUE(default_bugs(CoreKind::kRocket).enabled(BugId::kV7EbreakInstret));
  EXPECT_TRUE(default_bugs(CoreKind::kBoom).empty());
}

}  // namespace
}  // namespace mabfuzz::soc
