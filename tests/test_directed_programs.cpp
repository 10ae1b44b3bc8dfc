// Directed real-program regression: classic little kernels (loops,
// memory walks, recursion-free algorithms) run on every substrate core and
// must (a) compute the architecturally correct results and (b) match the
// golden ISS trace exactly. This demonstrates the substrate executes real
// control flow, not just straight-line fuzz programs.

#include <gtest/gtest.h>

#include "fuzz/oracle.hpp"
#include "golden/iss.hpp"
#include "isa/builder.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::soc {
namespace {

using namespace isa;  // builders

class DirectedPrograms : public ::testing::TestWithParam<CoreKind> {
 protected:
  /// Runs on DUT + ISS, asserts equivalence, returns the final registers.
  std::array<std::uint64_t, kNumRegs> run(const std::vector<Instruction>& program) {
    Pipeline dut(core_params(GetParam(), BugSet::none()));
    golden::Iss iss(golden_config_for(GetParam()));
    const std::vector<Word> words = assemble(program);
    const RunOutput dut_out = dut.run(words);
    const ArchResult golden_out = iss.run(words);
    const auto mismatch = fuzz::compare(dut_out.arch, golden_out);
    EXPECT_FALSE(mismatch.has_value()) << fuzz::describe(*mismatch);
    EXPECT_EQ(dut_out.arch.halt, HaltReason::kSentinel) << "program did not finish";
    return dut_out.arch.regs;
  }
};

TEST_P(DirectedPrograms, FibonacciLoop) {
  // x10 = fib(12) iteratively: a=x1, b=x2, counter=x3.
  const auto regs = run({
      li(1, 0),            // a = 0
      li(2, 1),            // b = 1
      li(3, 12),           // n
      // loop:
      add(4, 1, 2),        // t = a + b
      mv(1, 2),            // a = b
      mv(2, 4),            // b = t
      addi(3, 3, -1),      // --n
      bne(3, 0, -16),      // while n != 0
      mv(10, 1),           // result
  });
  EXPECT_EQ(regs[10], 144u);  // fib(12)
}

TEST_P(DirectedPrograms, SumOfFirstN) {
  // x10 = sum 1..20 = 210 via a down-counting loop.
  const auto regs = run({
      li(1, 20),
      li(2, 0),
      add(2, 2, 1),        // loop: acc += i
      addi(1, 1, -1),
      bne(1, 0, -8),
      mv(10, 2),
  });
  EXPECT_EQ(regs[10], 210u);
}

TEST_P(DirectedPrograms, MemoryFillAndChecksum) {
  // Fill 8 dwords with i*3, then sum them back: 3*(0+..+7) = 84.
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  const auto regs = run({
      lui(1, scratch),     // base
      li(2, 0),            // i
      li(3, 8),            // limit
      // fill loop:
      li(4, 3),
      mul(4, 4, 2),        // v = 3*i
      slli(5, 2, 3),       // offset = i*8
      add(5, 5, 1),
      sd(5, 4, 0),
      addi(2, 2, 1),
      bne(2, 3, -24),
      // sum loop:
      li(2, 0),
      li(6, 0),            // acc
      slli(5, 2, 3),
      add(5, 5, 1),
      ld(7, 5, 0),
      add(6, 6, 7),
      addi(2, 2, 1),
      bne(2, 3, -20),
      mv(10, 6),
  });
  EXPECT_EQ(regs[10], 84u);
}

TEST_P(DirectedPrograms, GcdEuclid) {
  // x10 = gcd(252, 105) = 21 by repeated remainder.
  const auto regs = run({
      li(1, 252),
      li(2, 105),
      // loop: while x2 != 0 { t = x1 % x2; x1 = x2; x2 = t }
      rem(3, 1, 2),
      mv(1, 2),
      mv(2, 3),
      bne(2, 0, -12),
      mv(10, 1),
  });
  EXPECT_EQ(regs[10], 21u);
}

TEST_P(DirectedPrograms, BitCountKernighan) {
  // popcount(0x2E9) = 6 via n &= n-1 loop.
  const auto regs = run({
      li(1, 0x2E9),
      li(2, 0),
      // loop:
      addi(3, 1, -1),
      and_(1, 1, 3),
      addi(2, 2, 1),
      bne(1, 0, -12),
      mv(10, 2),
  });
  EXPECT_EQ(regs[10], 6u);
}

TEST_P(DirectedPrograms, FunctionCallAndReturn) {
  // jal to a "function" that doubles a0, returns via jalr; caller adds 1.
  const auto regs = run({
      li(10, 21),
      jal(1, 12),          // call +12 (the add below is the function)
      addi(10, 10, 1),     // after return: a0 = 42+1
      jal(0, 12),          // skip over the function body to the end
      // function: a0 *= 2; return
      add(10, 10, 10),
      jalr(0, 1, 0),
      // end:
      nop(),
  });
  EXPECT_EQ(regs[10], 43u);
}

TEST_P(DirectedPrograms, TrapAndResumeInsideLoop) {
  // A faulting load inside a loop: the handler skips it each iteration and
  // the loop still terminates with the right count.
  const auto regs = run({
      li(1, 5),            // n
      li(2, 64),           // invalid address
      li(3, 0),            // survived iterations
      // loop:
      lw(4, 2, 0),         // traps (load access fault), handler skips
      addi(3, 3, 1),
      addi(1, 1, -1),
      bne(1, 0, -12),
      mv(10, 3),
  });
  EXPECT_EQ(regs[10], 5u);
}

TEST_P(DirectedPrograms, CsrInstrumentedLoop) {
  // Count retired instructions across a small loop via minstret deltas.
  const auto regs = run({
      csrrs(1, csr::kMinstret, 0),  // start
      li(2, 4),
      addi(2, 2, -1),               // loop body: 2 instructions
      bne(2, 0, -4),
      csrrs(3, csr::kMinstret, 0),  // end
      sub(10, 3, 1),                // delta
  });
  // delta counts: li + 4*(addi+bne) + final csrrs = 1 + 8 + 1 = 10.
  EXPECT_EQ(regs[10], 10u);
}

INSTANTIATE_TEST_SUITE_P(AllCores, DirectedPrograms, ::testing::ValuesIn(kAllCores),
                         [](const ::testing::TestParamInfo<CoreKind>& param_info) {
                           return std::string(core_name(param_info.param));
                         });

}  // namespace
}  // namespace mabfuzz::soc
