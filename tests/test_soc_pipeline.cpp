// The load-bearing integration suite: with no bugs injected, every
// substrate core must be architecturally bit-equivalent to the golden ISS —
// on directed programs, on thousands of random legal programs, and on
// mutated (possibly illegal) programs. This is the property that makes the
// differential oracle sound: any mismatch implies an injected bug.

#include <gtest/gtest.h>

#include <stdexcept>

#include "fuzz/oracle.hpp"
#include "fuzz/seedgen.hpp"
#include "golden/iss.hpp"
#include "isa/builder.hpp"
#include "mutation/engine.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::soc {
namespace {

using namespace isa;  // builders

void expect_equivalent(CoreKind kind, const std::vector<Word>& program,
                       const char* label) {
  Pipeline dut(core_params(kind, BugSet::none()));
  golden::Iss iss(golden_config_for(kind));
  const RunOutput dut_out = dut.run(program);
  const ArchResult golden_out = iss.run(program);
  const auto mismatch = fuzz::compare(dut_out.arch, golden_out);
  EXPECT_FALSE(mismatch.has_value())
      << label << " on " << core_name(kind) << ": "
      << fuzz::describe(*mismatch);
}

TEST(PipelineParamsCheck, RefusesShapesNoCoreHas) {
  for (const CoreKind kind : kAllCores) {
    EXPECT_NO_THROW(Pipeline{core_params(kind, BugSet::none())});
  }
  const auto refused = [](auto&& edit) {
    PipelineParams params = core_params(CoreKind::kBoom, BugSet::none());
    edit(params);
    EXPECT_THROW(Pipeline{params}, std::invalid_argument);
  };
  for (const unsigned lanes : {0u, 3u}) {
    refused([&](PipelineParams& p) {
      p.lanes = p.decode.lanes = p.exec.lanes = lanes;
    });
  }
  refused([](PipelineParams& p) { p.decode.lanes = 1; });
  refused([](PipelineParams& p) { p.exec.lanes = 4; });
  refused([](PipelineParams& p) { p.dram_size = 3 * 4096; });
  refused([](PipelineParams& p) { p.dram_size = 2048; });
  refused([](PipelineParams& p) { p.dram_size = 0; });
}

class CoreEquivalence : public ::testing::TestWithParam<CoreKind> {};

TEST_P(CoreEquivalence, Arithmetic) {
  expect_equivalent(GetParam(),
                    assemble({li(1, 5), li(2, -3), add(3, 1, 2), mul(4, 1, 2),
                              div_(5, 1, 2), sub(6, 2, 1), sltu(7, 1, 2)}),
                    "arithmetic");
}

TEST_P(CoreEquivalence, MemoryTraffic) {
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  expect_equivalent(GetParam(),
                    assemble({lui(1, scratch), li(2, -99), sd(1, 2, 0),
                              ld(3, 1, 0), sb(1, 2, 9), lbu(4, 1, 9),
                              sw(1, 3, 16), lw(5, 1, 16)}),
                    "memory");
}

TEST_P(CoreEquivalence, CacheEvictionPressure) {
  // Hammer one D$ set across many lines to force dirty evictions and
  // refills; write-back behaviour must stay invisible architecturally.
  std::vector<Instruction> program;
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  program.push_back(lui(1, scratch));
  for (int i = 0; i < 12; ++i) {
    program.push_back(addi(2, 0, i + 1));
    program.push_back(sd(1, 2, i * 64));   // distinct lines
  }
  for (int i = 0; i < 12; ++i) {
    program.push_back(ld(3, 1, i * 64));
  }
  expect_equivalent(GetParam(), assemble(program), "eviction");
}

TEST_P(CoreEquivalence, TrapsAndHandler) {
  expect_equivalent(GetParam(),
                    assemble({ecall(), ebreak(), li(1, 64), lw(2, 1, 0),
                              lw(3, 1, 1), csrrs(4, csr::kMcause, 0),
                              csrrs(5, csr::kMepc, 0)}),
                    "traps");
}

TEST_P(CoreEquivalence, CsrProtocol) {
  expect_equivalent(
      GetParam(),
      assemble({li(1, 0xff), csrrw(2, csr::kMscratch, 1),
                csrrs(3, csr::kMinstret, 0), csrrs(4, csr::kMcycle, 0),
                csrrwi(5, csr::kMscratch, 9), csrrci(6, csr::kMscratch, 1),
                csrrs(7, csr::kMisa, 0), csrrs(8, csr::kMarchid, 0)}),
      "csr");
}

TEST_P(CoreEquivalence, ControlFlow) {
  expect_equivalent(GetParam(),
                    assemble({li(1, 3), li(2, 3), beq(1, 2, 8), li(3, 1),
                              bne(1, 2, 8), li(4, 1), jal(5, 8), li(6, 1),
                              auipc(7, 0), jalr(8, 7, 13)}),
                    "control flow");
}

TEST_P(CoreEquivalence, FenceAndSystem) {
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  expect_equivalent(GetParam(),
                    assemble({lui(1, scratch), li(2, 5), sd(1, 2, 0), fence(),
                              fence_i(), ld(3, 1, 0), wfi(), mret()}),
                    "fence/system");
}

TEST_P(CoreEquivalence, IllegalWords) {
  std::vector<Word> program = assemble({li(1, 7)});
  program.push_back(0x00000000);  // not a 32-bit encoding
  program.push_back(0xffffffff);  // unknown everything
  program.push_back(0x0000007F);  // unknown major opcode
  const std::vector<Word> tail = assemble({li(2, 9)});
  program.insert(program.end(), tail.begin(), tail.end());
  expect_equivalent(GetParam(), program, "illegal words");
}

TEST_P(CoreEquivalence, RandomLegalPrograms) {
  const CoreKind kind = GetParam();
  Pipeline dut(core_params(kind, BugSet::none()));
  golden::Iss iss(golden_config_for(kind));
  fuzz::SeedGenerator gen(common::Xoshiro256StarStar(1234));
  for (int i = 0; i < 400; ++i) {
    const std::vector<Word> program = gen.next_program();
    const RunOutput dut_out = dut.run(program);
    const ArchResult golden_out = iss.run(program);
    const auto mismatch = fuzz::compare(dut_out.arch, golden_out);
    ASSERT_FALSE(mismatch.has_value())
        << "random program " << i << " on " << core_name(kind) << ": "
        << fuzz::describe(*mismatch);
  }
}

TEST_P(CoreEquivalence, MutatedPrograms) {
  const CoreKind kind = GetParam();
  Pipeline dut(core_params(kind, BugSet::none()));
  golden::Iss iss(golden_config_for(kind));
  fuzz::SeedGenerator gen(common::Xoshiro256StarStar(99));
  mutation::Engine engine(common::Xoshiro256StarStar(77));
  std::vector<Word> program = gen.next_program();
  for (int i = 0; i < 400; ++i) {
    program = engine.mutate(program);
    const RunOutput dut_out = dut.run(program);
    const ArchResult golden_out = iss.run(program);
    const auto mismatch = fuzz::compare(dut_out.arch, golden_out);
    ASSERT_FALSE(mismatch.has_value())
        << "mutant " << i << " on " << core_name(kind) << ": "
        << fuzz::describe(*mismatch);
    if (i % 25 == 24) {
      program = gen.next_program();  // fresh lineage, keep diversity
    }
  }
}

TEST_P(CoreEquivalence, DeterministicRuns) {
  const CoreKind kind = GetParam();
  Pipeline dut(core_params(kind, BugSet::none()));
  const std::vector<Word> program =
      assemble({li(1, 42), mul(2, 1, 1), ecall(), li(3, 1)});
  const RunOutput a = dut.run(program);
  const RunOutput b = dut.run(program);
  EXPECT_EQ(a.arch.commits.size(), b.arch.commits.size());
  EXPECT_EQ(a.arch.regs, b.arch.regs);
  EXPECT_EQ(a.test_coverage, b.test_coverage);
  EXPECT_EQ(a.cycles, b.cycles);
}

INSTANTIATE_TEST_SUITE_P(AllCores, CoreEquivalence, ::testing::ValuesIn(kAllCores),
                         [](const ::testing::TestParamInfo<CoreKind>& param_info) {
                           return std::string(core_name(param_info.param));
                         });

// --- structural properties -------------------------------------------------------

TEST(PipelineStructure, CoverageUniversesAreCalibrated) {
  const Pipeline cva6(core_params(CoreKind::kCva6, BugSet::none()));
  const Pipeline rocket(core_params(CoreKind::kRocket, BugSet::none()));
  const Pipeline boom(core_params(CoreKind::kBoom, BugSet::none()));
  // Ordering matches the paper's Fig. 3 axes: CVA6 < Rocket < BOOM.
  EXPECT_LT(cva6.coverage_universe(), rocket.coverage_universe());
  EXPECT_LT(rocket.coverage_universe(), boom.coverage_universe());
  // Magnitudes in the paper's order of magnitude (EXPERIMENTS.md records
  // the exact calibration).
  EXPECT_GT(cva6.coverage_universe(), 6000u);
  EXPECT_LT(cva6.coverage_universe(), 16000u);
  EXPECT_GT(rocket.coverage_universe(), 8000u);
  EXPECT_LT(rocket.coverage_universe(), 26000u);
  EXPECT_GT(boom.coverage_universe(), 11500u);
  EXPECT_LT(boom.coverage_universe(), 48000u);
}

TEST(PipelineStructure, CoverageAccumulatesOverTests) {
  Pipeline dut(core_params(CoreKind::kCva6, BugSet::none()));
  fuzz::SeedGenerator gen(common::Xoshiro256StarStar(5));
  coverage::Accumulator acc(dut.coverage_universe());
  std::size_t after_one = 0;
  for (int i = 0; i < 50; ++i) {
    acc.absorb(dut.run(gen.next_program()).test_coverage);
    if (i == 0) {
      after_one = acc.covered();
    }
  }
  EXPECT_GT(after_one, 0u);
  EXPECT_GT(acc.covered(), after_one);  // coverage grows over tests
  EXPECT_LT(acc.covered(), acc.universe());  // but is far from the universe
}

TEST(PipelineStructure, IdentityCsrsDifferPerCore) {
  auto marchid = [](CoreKind kind) {
    Pipeline dut(core_params(kind, BugSet::none()));
    const auto r = dut.run(assemble({csrrs(1, csr::kMarchid, 0)}));
    return r.arch.regs[1];
  };
  EXPECT_EQ(marchid(CoreKind::kCva6), 3u);
  EXPECT_EQ(marchid(CoreKind::kRocket), 1u);
  EXPECT_EQ(marchid(CoreKind::kBoom), 2u);
}

TEST(PipelineStructure, CyclesAdvance) {
  Pipeline dut(core_params(CoreKind::kRocket, BugSet::none()));
  const auto r = dut.run(assemble({li(1, 1), li(2, 2), add(3, 1, 2)}));
  EXPECT_GT(r.cycles, 3u);  // at least one cycle per instruction + fetch costs
}

TEST(PipelineTiming, RawHazardCostsCycles) {
  Pipeline dut(core_params(CoreKind::kRocket, BugSet::none()));
  // Dependent divide chain (long-latency producer feeding a consumer)
  // vs an independent chain of the same instruction count.
  const auto dependent = dut.run(assemble(
      {li(1, 1000), li(2, 3), div_(3, 1, 2), add(4, 3, 3), add(5, 4, 4)}));
  const auto independent = dut.run(assemble(
      {li(1, 1000), li(2, 3), div_(3, 1, 2), add(4, 1, 2), add(5, 1, 2)}));
  EXPECT_GT(dependent.cycles, independent.cycles);
}

TEST(PipelineTiming, CacheMissesCostCycles) {
  Pipeline dut(core_params(CoreKind::kRocket, BugSet::none()));
  const std::int64_t scratch = static_cast<std::int32_t>(kScratchBase);
  // Eight loads of the same line (one miss) vs eight distinct lines.
  std::vector<Instruction> hot{lui(1, scratch)};
  std::vector<Instruction> cold{lui(1, scratch)};
  for (int i = 0; i < 8; ++i) {
    hot.push_back(ld(2, 1, 0));
    cold.push_back(ld(2, 1, i * 64));
  }
  EXPECT_LT(dut.run(assemble(hot)).cycles, dut.run(assemble(cold)).cycles);
}

TEST(PipelineTiming, TimingNeverLeaksIntoArchitecture) {
  // Same data flow, different timing (hazards vs none): architectural
  // results must be identical.
  Pipeline dut(core_params(CoreKind::kCva6, BugSet::none()));
  const auto a = dut.run(assemble(
      {li(1, 6), li(2, 7), mul(3, 1, 2), add(4, 3, 0), add(5, 4, 0)}));
  const auto b = dut.run(assemble(
      {li(1, 6), li(2, 7), mul(3, 1, 2), nop(), nop(), add(4, 3, 0),
       add(5, 4, 0)}));
  EXPECT_EQ(a.arch.regs[5], b.arch.regs[5]);
  EXPECT_EQ(a.arch.regs[5], 42u);
}

TEST(PipelineCoverage, SequencePairsNeedAdjacency) {
  // The seq_pair group hits (prev, cur) only for back-to-back legal
  // commits; a trap between them breaks the sequence.
  Pipeline dut(core_params(CoreKind::kCva6, BugSet::none()));
  const auto& reg = dut.registry();
  coverage::PointId base = 0;
  for (coverage::PointId id = 0; id < reg.size(); ++id) {
    if (reg.name(id) == "pipeline/seq_pair[0]") {
      base = id;
      break;
    }
  }
  const auto pair_id = [&](Mnemonic a, Mnemonic b) {
    return base + static_cast<coverage::PointId>(a) * isa::kNumMnemonics +
           static_cast<coverage::PointId>(b);
  };
  const auto adjacent = dut.run(assemble({mul(1, 2, 3), div_(4, 5, 6)}));
  EXPECT_TRUE(adjacent.test_coverage.test(pair_id(Mnemonic::kMul, Mnemonic::kDiv)));

  const auto split = dut.run(assemble({mul(1, 2, 3), ecall(), div_(4, 5, 6)}));
  EXPECT_FALSE(split.test_coverage.test(pair_id(Mnemonic::kMul, Mnemonic::kDiv)));
}

TEST(PipelineCoverage, PerTestMapIsSubsetOfRerunUnion) {
  // Determinism corollary: running the same test twice yields the same map,
  // so the union equals each individual map.
  Pipeline dut(core_params(CoreKind::kBoom, BugSet::none()));
  fuzz::SeedGenerator gen(common::Xoshiro256StarStar(3));
  for (int i = 0; i < 10; ++i) {
    const auto program = gen.next_program();
    const auto first = dut.run(program).test_coverage;
    auto second = dut.run(program).test_coverage;
    EXPECT_EQ(first.count_new(second), 0u);
    EXPECT_EQ(second.count_new(first), 0u);
  }
}

}  // namespace
}  // namespace mabfuzz::soc
