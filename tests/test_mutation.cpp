// Mutation-engine tests: operator applicability, bounds, determinism and
// engine-level behaviour (parameterised across all operators).

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "isa/builder.hpp"
#include "isa/decoder.hpp"
#include "isa/encoder.hpp"
#include "mutation/engine.hpp"
#include "mutation/operators.hpp"
#include "mutation/policy.hpp"

namespace mabfuzz::mutation {
namespace {

using common::Xoshiro256StarStar;
using isa::Word;

std::vector<Word> sample_program() {
  return isa::assemble({isa::li(1, 5), isa::add(2, 1, 1), isa::sw(2, 1, 8),
                        isa::beq(1, 2, 8), isa::jal(0, 4)});
}

// --- per-operator behaviour (parameterised) ------------------------------------

class OperatorTest : public ::testing::TestWithParam<Op> {};

TEST_P(OperatorTest, PreservesLengthUnlessStructural) {
  Xoshiro256StarStar rng(17);
  for (int i = 0; i < 100; ++i) {
    std::vector<Word> program = sample_program();
    const std::size_t before = program.size();
    const bool applied = apply(GetParam(), program, rng);
    switch (GetParam()) {
      case Op::kInstrDelete:
        if (applied) {
          EXPECT_EQ(program.size(), before - 1);
        }
        break;
      case Op::kInstrClone:
        if (applied) {
          EXPECT_EQ(program.size(), before + 1);
        }
        break;
      default:
        EXPECT_EQ(program.size(), before);
    }
  }
}

TEST_P(OperatorTest, EmptyProgramIsRejected) {
  Xoshiro256StarStar rng(3);
  std::vector<Word> empty;
  EXPECT_FALSE(apply(GetParam(), empty, rng));
}

TEST_P(OperatorTest, HasAName) {
  EXPECT_NE(op_name(GetParam()), "?");
}

std::vector<Op> all_ops() {
  std::vector<Op> v;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    v.push_back(static_cast<Op>(i));
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllOperators, OperatorTest, ::testing::ValuesIn(all_ops()),
                         [](const ::testing::TestParamInfo<Op>& param_info) {
                           return std::string(op_name(param_info.param));
                         });

// --- specific operator semantics ---------------------------------------------------

TEST(Operators, BitFlip1ChangesExactlyOneBit) {
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 50; ++i) {
    std::vector<Word> program = sample_program();
    const std::vector<Word> before = program;
    ASSERT_TRUE(apply(Op::kBitFlip1, program, rng));
    int changed_words = 0;
    int changed_bits = 0;
    for (std::size_t w = 0; w < program.size(); ++w) {
      if (program[w] != before[w]) {
        ++changed_words;
        changed_bits = std::popcount(program[w] ^ before[w]);
      }
    }
    EXPECT_EQ(changed_words, 1);
    EXPECT_EQ(changed_bits, 1);
  }
}

TEST(Operators, ByteFlipChangesOneByte) {
  Xoshiro256StarStar rng(7);
  std::vector<Word> program = sample_program();
  const std::vector<Word> before = program;
  ASSERT_TRUE(apply(Op::kByteFlip, program, rng));
  Word diff = 0;
  for (std::size_t w = 0; w < program.size(); ++w) {
    diff |= program[w] ^ before[w];
  }
  EXPECT_EQ(std::popcount(diff), 8);
}

TEST(Operators, DeleteRefusesSingleInstruction) {
  Xoshiro256StarStar rng(9);
  std::vector<Word> program = {isa::encode_or_die(isa::nop())};
  EXPECT_FALSE(apply(Op::kInstrDelete, program, rng));
  EXPECT_FALSE(apply(Op::kInstrSwap, program, rng));
}

TEST(Operators, CloneRespectsMaxLength) {
  Xoshiro256StarStar rng(11);
  std::vector<Word> program(kMaxProgramWords, isa::encode_or_die(isa::nop()));
  EXPECT_FALSE(apply(Op::kInstrClone, program, rng));
  EXPECT_EQ(program.size(), kMaxProgramWords);
}

TEST(Operators, OpcodeSwapKeepsFormatAndDecodability) {
  Xoshiro256StarStar rng(13);
  int applied = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<Word> program = {isa::encode_or_die(isa::add(3, 1, 2))};
    if (apply(Op::kOpcodeSwap, program, rng)) {
      ++applied;
      const isa::DecodeResult d = isa::decode(program[0]);
      ASSERT_TRUE(d.ok());
      EXPECT_NE(d.instr.mnemonic, isa::Mnemonic::kAdd);
      // Operands survive the swap.
      EXPECT_EQ(d.instr.rd, 3);
      EXPECT_EQ(d.instr.rs1, 1);
      EXPECT_EQ(d.instr.rs2, 2);
    }
  }
  EXPECT_GT(applied, 150);
}

TEST(Operators, OpcodeSwapRejectsIllegalWord) {
  Xoshiro256StarStar rng(15);
  std::vector<Word> program = {0xffffffffu};
  EXPECT_FALSE(apply(Op::kOpcodeSwap, program, rng));
}

TEST(Operators, OperandShuffleAlwaysApplies) {
  Xoshiro256StarStar rng(17);
  std::vector<Word> program = sample_program();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(apply(Op::kOperandShuffle, program, rng));
  }
}

TEST(Operators, InstrSwapPermutesProgram) {
  Xoshiro256StarStar rng(19);
  std::vector<Word> program = sample_program();
  auto sorted_before = program;
  std::sort(sorted_before.begin(), sorted_before.end());
  ASSERT_TRUE(apply(Op::kInstrSwap, program, rng));
  std::sort(program.begin(), program.end());
  EXPECT_EQ(program, sorted_before);  // multiset preserved
}

// --- engine --------------------------------------------------------------------------

TEST(Engine, MutantDiffersFromParent) {
  Engine engine(Xoshiro256StarStar(23));
  const std::vector<Word> parent = sample_program();
  int different = 0;
  for (int i = 0; i < 100; ++i) {
    if (engine.mutate(parent) != parent) {
      ++different;
    }
  }
  EXPECT_GT(different, 95);  // ops are occasionally no-ops (e.g. swap same index)
}

TEST(Engine, DeterministicForSameSeed) {
  const std::vector<Word> parent = sample_program();
  Engine a(Xoshiro256StarStar(31));
  Engine b(Xoshiro256StarStar(31));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.mutate(parent), b.mutate(parent));
  }
}

TEST(Engine, OpCountsAccumulate) {
  Engine engine(Xoshiro256StarStar(37));
  const std::vector<Word> parent = sample_program();
  for (int i = 0; i < 300; ++i) {
    (void)engine.mutate(parent);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : engine.op_counts()) {
    total += c;
  }
  EXPECT_GT(total, 300u);  // bursts of 1..max_ops
}

TEST(Engine, RespectsOperatorWeights) {
  std::array<double, kNumOps> weights{};
  weights[static_cast<std::size_t>(Op::kBitFlip1)] = 1.0;
  Engine engine(Xoshiro256StarStar(41),
                std::make_shared<StaticPolicy>(weights));
  const std::vector<Word> parent = sample_program();
  for (int i = 0; i < 100; ++i) {
    (void)engine.mutate(parent);
  }
  for (std::size_t op = 0; op < kNumOps; ++op) {
    if (op != static_cast<std::size_t>(Op::kBitFlip1)) {
      EXPECT_EQ(engine.op_counts()[op], 0u) << op_name(static_cast<Op>(op));
    }
  }
  EXPECT_GT(engine.op_counts()[static_cast<std::size_t>(Op::kBitFlip1)], 0u);
}

TEST(Engine, EmptyParentStaysEmpty) {
  Engine engine(Xoshiro256StarStar(43));
  EXPECT_TRUE(engine.mutate({}).empty());
}

}  // namespace
}  // namespace mabfuzz::mutation
