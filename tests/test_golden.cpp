// Golden-ISS tests: memory model, CSR file semantics, and instruction
// execution semantics including traps, the resume handler, counters and
// halting behaviour.

#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hpp"
#include "golden/csr.hpp"
#include "golden/iss.hpp"
#include "golden/memory.hpp"
#include "isa/builder.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::golden {
namespace {

using isa::HaltReason;
using isa::TrapCause;
using namespace isa;  // builders

// --- Memory -------------------------------------------------------------------

TEST(Memory, LoadStoreRoundTrip) {
  Memory mem(kDramBase, 4096);
  EXPECT_TRUE(mem.store(kDramBase + 16, 0x1122334455667788ULL, 8));
  EXPECT_EQ(mem.load(kDramBase + 16, 8), 0x1122334455667788ULL);
  EXPECT_EQ(mem.load(kDramBase + 16, 1), 0x88ULL);
  EXPECT_EQ(mem.load(kDramBase + 17, 1), 0x77ULL);
}

TEST(Memory, LittleEndianLayout) {
  Memory mem(kDramBase, 4096);
  mem.store(kDramBase, 0xAABBCCDD, 4);
  EXPECT_EQ(mem.load(kDramBase + 0, 1), 0xDDULL);
  EXPECT_EQ(mem.load(kDramBase + 3, 1), 0xAAULL);
}

TEST(Memory, OutOfRangeIsReported) {
  Memory mem(kDramBase, 4096);
  EXPECT_FALSE(mem.load(kDramBase - 1, 1).has_value());
  EXPECT_FALSE(mem.load(kDramBase + 4096, 1).has_value());
  EXPECT_FALSE(mem.load(kDramBase + 4093, 4).has_value());  // spans the edge
  EXPECT_FALSE(mem.store(0, 1, 1));
}

TEST(Memory, PhysicalAddressIs32Bit) {
  Memory mem(kDramBase, 4096);
  // Sign-extended alias of kDramBase must reach the same bytes.
  const std::uint64_t alias = 0xFFFFFFFF00000000ULL | kDramBase;
  EXPECT_TRUE(mem.store(alias + 8, 0x42, 1));
  EXPECT_EQ(mem.load(kDramBase + 8, 1), 0x42ULL);
}

TEST(Memory, WriteWordsAndFetch) {
  Memory mem(kDramBase, 4096);
  EXPECT_TRUE(mem.write_words(kDramBase, {0x11111111, 0x22222222}));
  isa::Word word = 0;
  ASSERT_TRUE(mem.fetch(kDramBase + 4, word));
  EXPECT_EQ(word, 0x22222222u);
  // A sign-extended alias fetches the same word; the last word fits, the
  // one straddling the end does not and leaves `word` untouched.
  ASSERT_TRUE(mem.fetch(0xFFFFFFFF00000000ULL | kDramBase, word));
  EXPECT_EQ(word, 0x11111111u);
  EXPECT_TRUE(mem.fetch(kDramBase + 4092, word));
  word = 7;
  EXPECT_FALSE(mem.fetch(kDramBase + 4094, word));
  EXPECT_FALSE(mem.fetch(kDramBase - 4, word));
  EXPECT_EQ(word, 7u);
  EXPECT_FALSE(mem.write_words(kDramBase + 4092, {1, 2}));  // does not fit
}

TEST(Memory, ClearZeroes) {
  Memory mem(kDramBase, 64);
  mem.store(kDramBase, 0xff, 1);
  mem.clear();
  EXPECT_EQ(mem.load(kDramBase, 1), 0ULL);
}

// --- dirty-region reset ---------------------------------------------------------

TEST(Memory, ResetZeroesOnlyWhatWasWrittenButReadsLikeClear) {
  Memory mem(kDramBase, 256 * 1024);
  EXPECT_EQ(mem.dirty_pages(), 0u);

  // Scattered stores across distinct pages, including an 8-byte store
  // straddling a page boundary (must dirty both pages).
  ASSERT_TRUE(mem.store(kDramBase + 0x400, 0xdeadbeef, 4));
  ASSERT_TRUE(mem.store(kDramBase + 0x1'0000, ~0ULL, 8));
  ASSERT_TRUE(mem.store(kDramBase + 2 * Memory::kPageBytes - 4, ~0ULL, 8));
  ASSERT_TRUE(mem.write_words(kDramBase + 0x8000, {0x11111111, 0x22222222}));
  EXPECT_EQ(mem.dirty_pages(), 5u);  // pages 0, 16, 1, 2, 8

  mem.reset();
  EXPECT_EQ(mem.dirty_pages(), 0u);
  EXPECT_EQ(mem.load(kDramBase + 0x400, 4), 0ULL);
  EXPECT_EQ(mem.load(kDramBase + 0x1'0000, 8), 0ULL);
  EXPECT_EQ(mem.load(kDramBase + 2 * Memory::kPageBytes - 4, 8), 0ULL);
  EXPECT_EQ(mem.load(kDramBase + 0x8000, 8), 0ULL);
}

TEST(Memory, ResetIsObservationallyIdenticalToClear) {
  // Write the same pattern into two memories, reset() one, clear() the
  // other, then compare every byte.
  Memory reset_mem(kDramBase, 8 * Memory::kPageBytes);
  Memory clear_mem(kDramBase, 8 * Memory::kPageBytes);
  for (std::uint64_t offset = 0; offset < 8 * Memory::kPageBytes;
       offset += 977) {  // prime stride: hits every page, misaligned offsets
    reset_mem.store(kDramBase + offset, offset, 1);
    clear_mem.store(kDramBase + offset, offset, 1);
  }
  reset_mem.reset();
  clear_mem.clear();
  for (std::uint64_t offset = 0; offset < 8 * Memory::kPageBytes; offset += 8) {
    ASSERT_EQ(reset_mem.load(kDramBase + offset, 8),
              clear_mem.load(kDramBase + offset, 8))
        << "offset " << offset;
  }
}

TEST(Memory, WritesAfterResetAreTrackedAgain) {
  Memory mem(kDramBase, 4 * Memory::kPageBytes);
  mem.store(kDramBase + 100, 0xab, 1);
  mem.reset();
  mem.store(kDramBase + 3 * Memory::kPageBytes, 0xcd, 1);
  EXPECT_EQ(mem.dirty_pages(), 1u);
  mem.reset();
  EXPECT_EQ(mem.load(kDramBase + 3 * Memory::kPageBytes, 1), 0ULL);
  EXPECT_EQ(mem.dirty_pages(), 0u);
}

TEST(Memory, ChangesCountBytesWhoseValueChanged) {
  Memory memory(kDramBase, 4096);
  memory.store(kDramBase, 0x1122, 2);
  EXPECT_EQ(memory.changes(), 2u);
  memory.store(kDramBase, 0x1122, 2);  // same bytes
  EXPECT_EQ(memory.changes(), 2u);
  memory.store(kDramBase, 0x3322, 2);
  EXPECT_EQ(memory.changes(), 3u);
  std::uint8_t block[4] = {0x22, 0x33, 0, 0};
  memory.write_block(kDramBase, block, 4);
  EXPECT_EQ(memory.changes(), 3u);
  block[3] = 1;
  memory.write_block(kDramBase, block, 4);
  EXPECT_EQ(memory.changes(), 4u);
}

TEST(Memory, PartialTrailingPageResetsFully) {
  // A RAM whose size is not a page multiple: the trailing partial page must
  // reset without touching out-of-range bytes.
  Memory mem(kDramBase, Memory::kPageBytes + 128);
  ASSERT_TRUE(mem.store(kDramBase + Memory::kPageBytes + 120, ~0ULL, 8));
  mem.reset();
  EXPECT_EQ(mem.load(kDramBase + Memory::kPageBytes + 120, 8), 0ULL);
}

// --- CsrFile ------------------------------------------------------------------

/// CsrFile::read as an optional, for compact expectations.
std::optional<std::uint64_t> read_csr(const CsrFile& csrs, isa::CsrAddr addr,
                                      std::uint64_t instret) {
  std::uint64_t value = 0;
  if (!csrs.read(addr, instret, value)) {
    return std::nullopt;
  }
  return value;
}

TEST(CsrFile, ResetState) {
  CsrFile csrs;
  EXPECT_EQ(csrs.mtvec(), kHandlerBase);
  EXPECT_EQ(csrs.mepc(), 0u);
  EXPECT_EQ(csrs.mcause(), 0u);
}

TEST(CsrFile, MstatusWarlBits) {
  CsrFile csrs;
  EXPECT_EQ(csrs.write(csr::kMstatus, ~0ULL), CsrFile::WriteResult::kOk);
  const auto v = read_csr(csrs, csr::kMstatus, 0);
  ASSERT_TRUE(v.has_value());
  // Only MIE/MPIE writable; MPP reads back as machine (0b11 << 11).
  EXPECT_EQ(*v, (1ULL << 3) | (1ULL << 7) | (0b11ULL << 11));
}

TEST(CsrFile, MisaIsReadOnlyConstant) {
  CsrFile csrs;
  const auto before = read_csr(csrs, csr::kMisa, 0);
  EXPECT_EQ(csrs.write(csr::kMisa, 0), CsrFile::WriteResult::kOk);
  EXPECT_EQ(read_csr(csrs, csr::kMisa, 0), before);
  // RV64IM: MXL=2, I and M bits.
  EXPECT_EQ(*before, (2ULL << 62) | (1ULL << 8) | (1ULL << 12));
}

TEST(CsrFile, UnimplementedCsrIsIllegal) {
  CsrFile csrs;
  EXPECT_FALSE(read_csr(csrs, 0x7C0, 0).has_value());
  EXPECT_EQ(csrs.write(0x7C0, 1), CsrFile::WriteResult::kIllegal);
}

TEST(CsrFile, ReadOnlyRangeWriteIsIllegal) {
  CsrFile csrs;
  EXPECT_EQ(csrs.write(csr::kMvendorid, 1), CsrFile::WriteResult::kIllegal);
  EXPECT_EQ(csrs.write(csr::kCycle, 1), CsrFile::WriteResult::kIllegal);
}

TEST(CsrFile, CounterWritesIgnored) {
  CsrFile csrs;
  EXPECT_EQ(csrs.write(csr::kMinstret, 999), CsrFile::WriteResult::kOk);
  EXPECT_EQ(read_csr(csrs, csr::kMinstret, 5), 5ULL);  // still instret-driven
  EXPECT_EQ(read_csr(csrs, csr::kMcycle, 5), virtual_cycle(5));
}

TEST(CsrFile, TrapEntryAndMret) {
  CsrFile csrs;
  csrs.write(csr::kMstatus, 1ULL << 3);  // MIE = 1
  csrs.enter_trap(0x80000444, TrapCause::kBreakpoint, 0x80000444);
  EXPECT_EQ(csrs.mepc(), 0x80000444u);
  EXPECT_EQ(csrs.mcause(), 3u);
  EXPECT_EQ(csrs.mtval(), 0x80000444u);
  // MIE stacked into MPIE and cleared.
  EXPECT_EQ(*read_csr(csrs, csr::kMstatus, 0) & (1ULL << 3), 0u);
  EXPECT_NE(*read_csr(csrs, csr::kMstatus, 0) & (1ULL << 7), 0u);
  EXPECT_EQ(csrs.take_mret(), 0x80000444u);
  EXPECT_NE(*read_csr(csrs, csr::kMstatus, 0) & (1ULL << 3), 0u);  // MIE restored
}

TEST(CsrFile, MtvecAlignment) {
  CsrFile csrs;
  csrs.write(csr::kMtvec, 0x80001237);
  EXPECT_EQ(csrs.mtvec(), 0x80001234u);
}

TEST(CsrFile, IdentityCsrs) {
  CsrFile csrs(CsrIdentity{7, 3, 2, 1});
  EXPECT_EQ(read_csr(csrs, csr::kMvendorid, 0), 7ULL);
  EXPECT_EQ(read_csr(csrs, csr::kMarchid, 0), 3ULL);
  EXPECT_EQ(read_csr(csrs, csr::kMimpid, 0), 2ULL);
  EXPECT_EQ(read_csr(csrs, csr::kMhartid, 0), 1ULL);
}

// --- ISS execution -------------------------------------------------------------

class IssTest : public ::testing::Test {
 protected:
  isa::ArchResult run(const std::vector<isa::Instruction>& program) {
    return iss_.run(isa::assemble(program));
  }
  Iss iss_{IssConfig{}};
};

TEST_F(IssTest, StraightLineArithmetic) {
  const auto r = run({li(1, 5), li(2, 7), add(3, 1, 2), sub(4, 1, 2)});
  EXPECT_EQ(r.halt, HaltReason::kSentinel);
  EXPECT_EQ(r.regs[3], 12u);
  EXPECT_EQ(r.regs[4], static_cast<std::uint64_t>(-2));
  EXPECT_EQ(r.instret, 4u);
  EXPECT_EQ(r.commits.size(), 4u);
}

TEST_F(IssTest, X0IsHardwiredZero) {
  const auto r = run({li(0, 5), add(1, 0, 0)});
  EXPECT_EQ(r.regs[0], 0u);
  EXPECT_EQ(r.regs[1], 0u);
  EXPECT_FALSE(r.commits[0].wrote_rd);
}

TEST_F(IssTest, LuiAuipcSemantics) {
  const auto r = run({lui(1, 0x12345000), auipc(2, 0x1000)});
  EXPECT_EQ(r.regs[1], 0x12345000u);
  EXPECT_EQ(r.regs[2], kProgramBase + 4 + 0x1000);
}

TEST_F(IssTest, BranchTakenSkips) {
  const auto r = run({li(1, 1), beq(1, 1, 8), li(2, 99), li(3, 42)});
  EXPECT_EQ(r.regs[2], 0u);   // skipped
  EXPECT_EQ(r.regs[3], 42u);
}

TEST_F(IssTest, BranchNotTakenFallsThrough) {
  const auto r = run({li(1, 1), bne(1, 1, 8), li(2, 99), li(3, 42)});
  EXPECT_EQ(r.regs[2], 99u);
  EXPECT_EQ(r.regs[3], 42u);
}

TEST_F(IssTest, SignedUnsignedBranches) {
  // -1 < 1 signed, but 0xffff... > 1 unsigned.
  const auto r = run({li(1, -1), li(2, 1), blt(1, 2, 8), nop(),
                      li(3, 1),  // executed (taken skips previous nop only)
                      bltu(1, 2, 8), li(4, 77), nop()});
  EXPECT_EQ(r.regs[3], 1u);
  EXPECT_EQ(r.regs[4], 77u);  // bltu not taken: falls through
}

TEST_F(IssTest, JalLinksAndJumps) {
  const auto r = run({jal(1, 8), li(2, 99), li(3, 42)});
  EXPECT_EQ(r.regs[1], kProgramBase + 4);
  EXPECT_EQ(r.regs[2], 0u);
  EXPECT_EQ(r.regs[3], 42u);
}

TEST_F(IssTest, JalrMasksBit0) {
  // jalr target (base + 13) & ~1 = base + 12 -> lands on li(3,42).
  const auto r = run({auipc(5, 0), jalr(1, 5, 13), li(2, 99), li(3, 42)});
  EXPECT_EQ(r.regs[2], 0u);
  EXPECT_EQ(r.regs[3], 42u);
}

TEST_F(IssTest, LoadStoreRoundTrip) {
  // Build a scratch pointer with the LUI idiom (sign-extended alias works
  // through the 32-bit physical bus).
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  const auto r = run({lui(1, scratch), li(2, -123), sd(1, 2, 16), ld(3, 1, 16),
                      lw(4, 1, 16), lbu(5, 1, 16)});
  EXPECT_EQ(r.regs[3], static_cast<std::uint64_t>(-123));
  EXPECT_EQ(r.regs[4], static_cast<std::uint64_t>(-123));  // lw sign-extends
  EXPECT_EQ(r.regs[5], 0x85u);                              // -123 = 0x...85
}

TEST_F(IssTest, StoreCommitRecord) {
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  const auto r = run({lui(1, scratch), li(2, 7), sw(1, 2, 4)});
  const auto& commit = r.commits[2];
  EXPECT_TRUE(commit.wrote_mem);
  EXPECT_EQ(commit.mem_value, 7u);
  EXPECT_EQ(commit.mem_bytes, 4u);
}

TEST_F(IssTest, MisalignedLoadTraps) {
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  const auto r = run({lui(1, scratch), lw(2, 1, 2)});
  ASSERT_GE(r.commits.size(), 2u);
  EXPECT_TRUE(r.commits[1].trapped);
  EXPECT_EQ(r.commits[1].cause,
            static_cast<std::uint64_t>(TrapCause::kLoadAddrMisaligned));
  // Handler resumes after the faulting instruction; run ends at sentinel.
  EXPECT_EQ(r.halt, HaltReason::kSentinel);
}

TEST_F(IssTest, OutOfRangeLoadFaults) {
  const auto r = run({li(1, 64), lw(2, 1, 0)});  // address 64: unmapped
  EXPECT_TRUE(r.commits[1].trapped);
  EXPECT_EQ(r.commits[1].cause,
            static_cast<std::uint64_t>(TrapCause::kLoadAccessFault));
}

TEST_F(IssTest, IllegalInstructionTraps) {
  auto words = isa::assemble({nop()});
  words.push_back(0xffffffff);  // illegal
  const auto r = iss_.run(words);
  ASSERT_GE(r.commits.size(), 2u);
  EXPECT_TRUE(r.commits[1].trapped);
  EXPECT_EQ(r.commits[1].cause,
            static_cast<std::uint64_t>(TrapCause::kIllegalInstruction));
  EXPECT_EQ(r.halt, HaltReason::kSentinel);  // handler skips it
}

TEST_F(IssTest, EcallAndEbreakTrapAndResume) {
  const auto r = run({ecall(), ebreak(), li(1, 9)});
  EXPECT_TRUE(r.commits[0].trapped);
  EXPECT_EQ(r.commits[0].cause, static_cast<std::uint64_t>(TrapCause::kEcallFromM));
  EXPECT_EQ(r.regs[1], 9u);
  EXPECT_EQ(r.halt, HaltReason::kSentinel);
}

TEST_F(IssTest, HandlerClobbersOnlyScratchRegister) {
  const auto r = run({li(5, 3), ecall(), li(6, 4)});
  EXPECT_EQ(r.regs[5], 3u);
  EXPECT_EQ(r.regs[6], 4u);
  // x31 (trap scratch) holds mepc + 4 after the handler ran.
  EXPECT_EQ(r.regs[kTrapScratchReg], kProgramBase + 4 + 4);
}

TEST_F(IssTest, InstretCountsTrappingInstructions) {
  const auto r = run({ecall(), nop()});
  // ecall + 4 handler instructions + nop = 6.
  EXPECT_EQ(r.instret, 6u);
}

TEST_F(IssTest, MinstretReadIncludesItself) {
  const auto r = run({csrrs(1, csr::kMinstret, 0)});
  EXPECT_EQ(r.regs[1], 1u);
}

TEST_F(IssTest, CycleIsDeterministicFunctionOfInstret) {
  const auto r = run({nop(), nop(), csrrs(1, csr::kMcycle, 0)});
  EXPECT_EQ(r.regs[1], virtual_cycle(3));
}

TEST_F(IssTest, CsrReadWriteProtocol) {
  const auto r = run({li(1, 0x55), csrrw(2, csr::kMscratch, 1),
                      csrrs(3, csr::kMscratch, 0)});
  EXPECT_EQ(r.regs[2], 0u);     // old value
  EXPECT_EQ(r.regs[3], 0x55u);  // new value readable
  EXPECT_EQ(r.mscratch, 0x55u);
}

TEST_F(IssTest, CsrSetClearBits) {
  const auto r = run({li(1, 0x0f), csrrw(0, csr::kMscratch, 1), li(2, 0x03),
                      csrrc(0, csr::kMscratch, 2), csrrs(3, csr::kMscratch, 0)});
  EXPECT_EQ(r.regs[3], 0x0cu);
}

TEST_F(IssTest, CsrImmediateForms) {
  const auto r = run({csrrwi(0, csr::kMscratch, 21), csrrsi(1, csr::kMscratch, 2)});
  EXPECT_EQ(r.regs[1], 21u);
  EXPECT_EQ(r.mscratch, 23u);
}

TEST_F(IssTest, CsrrsWithX0DoesNotWriteReadOnly) {
  // CSRRS x1, mvendorid, x0 reads a read-only CSR without trapping.
  const auto r = run({csrrs(1, csr::kMvendorid, 0)});
  EXPECT_FALSE(r.commits[0].trapped);
  // But CSRRW to it traps.
  const auto r2 = run({csrrw(1, csr::kMvendorid, 2)});
  EXPECT_TRUE(r2.commits[0].trapped);
}

TEST_F(IssTest, UnimplementedCsrTraps) {
  const auto r = run({csrrs(1, 0x7C0, 0)});
  EXPECT_TRUE(r.commits[0].trapped);
  EXPECT_EQ(r.commits[0].cause,
            static_cast<std::uint64_t>(TrapCause::kIllegalInstruction));
}

TEST_F(IssTest, MulDivSemantics) {
  const auto r = run({li(1, -7), li(2, 2), mul(3, 1, 2), div_(4, 1, 2),
                      rem(5, 1, 2), divu(6, 1, 2)});
  EXPECT_EQ(r.regs[3], static_cast<std::uint64_t>(-14));
  EXPECT_EQ(r.regs[4], static_cast<std::uint64_t>(-3));
  EXPECT_EQ(r.regs[5], static_cast<std::uint64_t>(-1));
  EXPECT_EQ(r.regs[6], (0xFFFFFFFFFFFFFFF9ULL) / 2);
}

TEST_F(IssTest, DivisionByZeroConvention) {
  const auto r = run({li(1, 42), li(2, 0), div_(3, 1, 2), rem(4, 1, 2),
                      divu(5, 1, 2), remu(6, 1, 2)});
  EXPECT_EQ(r.regs[3], ~0ULL);
  EXPECT_EQ(r.regs[4], 42u);
  EXPECT_EQ(r.regs[5], ~0ULL);
  EXPECT_EQ(r.regs[6], 42u);
}

TEST_F(IssTest, DivisionOverflowConvention) {
  const auto r = run({li(1, 1), slli(1, 1, 63),  // INT64_MIN
                      li(2, -1), div_(3, 1, 2), rem(4, 1, 2)});
  EXPECT_EQ(r.regs[3], 1ULL << 63);
  EXPECT_EQ(r.regs[4], 0u);
}

TEST_F(IssTest, WWordOpsSignExtend) {
  const auto r = run({li(1, 1), slli(1, 1, 31),  // 0x80000000
                      addiw(2, 1, 0),            // sext32
                      addw(3, 1, 1)});
  EXPECT_EQ(r.regs[2], 0xFFFFFFFF80000000ULL);
  EXPECT_EQ(r.regs[3], 0u);  // 0x80000000+0x80000000 = 0x100000000 -> sext32 = 0
}

TEST_F(IssTest, BudgetBoundsInfiniteLoop) {
  const auto r = run({jal(0, 0)});  // self-loop at the first instruction
  EXPECT_EQ(r.halt, HaltReason::kBudget);
  EXPECT_EQ(r.commits.size(), kDefaultInstructionBudget);
}

TEST_F(IssTest, WildJumpOutOfDramHalts) {
  const auto r = run({li(1, 16), jalr(0, 1, 0)});  // jump to 0x10: unmapped
  EXPECT_EQ(r.halt, HaltReason::kFetchOutOfRange);
}

TEST_F(IssTest, MisalignedJumpTargetTrapsOnFetch) {
  const auto r = run({auipc(1, 0), jalr(0, 1, 10)});  // target = base+10 (bit1)
  // The jump commits, then a fetch-misaligned pseudo-commit follows.
  ASSERT_GE(r.commits.size(), 3u);
  EXPECT_TRUE(r.commits[2].trapped);
  EXPECT_EQ(r.commits[2].cause,
            static_cast<std::uint64_t>(TrapCause::kInstrAddrMisaligned));
  EXPECT_EQ(r.commits[2].word, 0u);  // no instruction fetched
}

TEST_F(IssTest, FenceInstructionsAreNops) {
  const auto r = run({fence(), fence_i(), li(1, 5)});
  EXPECT_EQ(r.regs[1], 5u);
  EXPECT_EQ(r.instret, 3u);
}

TEST_F(IssTest, MretOutsideHandlerJumpsToMepc) {
  const auto r = run({li(1, 0), csrrw(0, csr::kMepc, 1), mret()});
  // mepc = 0 -> pc = 0 -> out of DRAM -> halt.
  EXPECT_EQ(r.halt, HaltReason::kFetchOutOfRange);
}

TEST_F(IssTest, SelfModifyingCodeExecutesNewWord) {
  // Store an "li x5, 42" over the following nop, then run through it.
  const isa::Word patch = isa::encode_or_die(li(5, 42));
  const std::int64_t lo = static_cast<std::int32_t>(patch & 0xfff);
  const std::int64_t hi =
      static_cast<std::int32_t>(((patch + 0x800) & 0xfffff000U));
  const auto r = run({
      lui(1, hi), addiw(1, 1, lo),     // x1 = patch word
      auipc(2, 0), sw(2, 1, 8),        // overwrite the word 8 past the auipc
      nop(),                           // patched to li x5, 42
  });
  EXPECT_EQ(r.regs[5], 42u);
}

TEST_F(IssTest, DeterministicAcrossRuns) {
  const std::vector<isa::Instruction> program = {li(1, 3), mul(2, 1, 1),
                                                 ecall(), li(3, 1)};
  const auto a = iss_.run(isa::assemble(program));
  const auto b = iss_.run(isa::assemble(program));
  EXPECT_EQ(a.commits.size(), b.commits.size());
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.instret, b.instret);
}

// --- CSR WARL properties (parameterised over every implemented CSR) -------------

class CsrWarl : public ::testing::TestWithParam<isa::CsrAddr> {};

TEST_P(CsrWarl, WritesAreIdempotentUnderReadback) {
  // WARL invariant: writing back a value that was just read must not
  // change the CSR (the implementation may mask writes, but the masked
  // result is a fixed point).
  const isa::CsrAddr addr = GetParam();
  if (isa::csr_read_only(addr)) {
    GTEST_SKIP() << "read-only CSR";
  }
  CsrFile csrs;
  common::Xoshiro256StarStar rng(addr * 2654435761u);
  for (int i = 0; i < 20; ++i) {
    (void)csrs.write(addr, rng.next());
    const auto a = read_csr(csrs, addr, 7);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(csrs.write(addr, *a), CsrFile::WriteResult::kOk);
    const auto b = read_csr(csrs, addr, 7);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b) << "CSR 0x" << std::hex << addr;
  }
}

TEST_P(CsrWarl, ReadOnlyCsrsRejectWrites) {
  const isa::CsrAddr addr = GetParam();
  CsrFile csrs;
  EXPECT_TRUE(read_csr(csrs, addr, 0).has_value());
  if (isa::csr_read_only(addr)) {
    EXPECT_EQ(csrs.write(addr, 1), CsrFile::WriteResult::kIllegal);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllImplemented, CsrWarl,
    ::testing::ValuesIn(std::vector<isa::CsrAddr>(
        isa::implemented_csrs().begin(), isa::implemented_csrs().end())),
    [](const ::testing::TestParamInfo<isa::CsrAddr>& param_info) {
      return std::string(*isa::csr_name(param_info.param));
    });

// --- ISS whole-program invariants (property style) --------------------------------

TEST(IssInvariants, HoldOnRandomPrograms) {
  Iss iss{IssConfig{}};
  common::Xoshiro256StarStar rng(0xbeef);
  for (int i = 0; i < 200; ++i) {
    // Random words, not even legal programs: invariants must still hold.
    std::vector<isa::Word> program;
    const std::size_t len = 4 + rng.next_index(24);
    for (std::size_t k = 0; k < len; ++k) {
      program.push_back(static_cast<isa::Word>(rng.next()));
    }
    const auto r = iss.run(program);
    // x0 is hardwired to zero.
    EXPECT_EQ(r.regs[0], 0u);
    // mepc is always 4-aligned (IALIGN=32 WARL mask).
    EXPECT_EQ(r.mepc & 0b11, 0u);
    // instret counts every commit except misaligned-fetch pseudo-commits
    // (which fetch no instruction: word == 0 with cause 0).
    std::uint64_t fetched = 0;
    for (const auto& c : r.commits) {
      const bool pseudo =
          c.trapped && c.word == 0 &&
          c.cause == static_cast<std::uint64_t>(
                         isa::TrapCause::kInstrAddrMisaligned);
      fetched += !pseudo;
      // No commit both traps and writes architectural state.
      EXPECT_FALSE(c.trapped && c.wrote_rd);
      EXPECT_FALSE(c.trapped && c.wrote_mem);
      // rd writes never target x0.
      if (c.wrote_rd) {
        EXPECT_NE(c.rd, 0);
      }
    }
    EXPECT_EQ(r.instret, fetched);
  }
}

}  // namespace
}  // namespace mabfuzz::golden
