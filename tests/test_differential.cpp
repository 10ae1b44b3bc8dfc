// Differential-testing hardening: with every injected bug disabled, the
// substrate cores must be architecturally bit-equivalent to the golden
// ISS on randomized instruction programs — commit-by-commit and in final
// architectural state. This is the soundness bedrock of every detection
// result in the repo: a clean-core divergence would count as a "bug
// detection" no injected bug caused.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "fuzz/backend.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/seedgen.hpp"
#include "golden/iss.hpp"
#include "isa/builder.hpp"
#include "isa/decoded_program.hpp"
#include "isa/loop_probe.hpp"
#include "isa/platform.hpp"
#include "mutation/engine.hpp"
#include "soc/cores.hpp"
#include "soc/pipeline.hpp"

namespace mabfuzz {
namespace {

std::string core_param_name(
    const ::testing::TestParamInfo<soc::CoreKind>& info) {
  return std::string(soc::core_name(info.param));
}

class CleanCoreDifferential : public ::testing::TestWithParam<soc::CoreKind> {};

TEST_P(CleanCoreDifferential, RandomSeedProgramsMatchGoldenIss) {
  const soc::CoreKind kind = GetParam();
  golden::Iss iss(soc::golden_config_for(kind));
  soc::Pipeline dut(soc::core_params(kind, soc::BugSet::none()));
  fuzz::SeedGenerator gen(common::make_stream(2024, 0, "differential"));

  for (int t = 0; t < 60; ++t) {
    const std::vector<isa::Word> program = gen.next_program();
    const soc::RunOutput dut_out = dut.run(program);
    const isa::ArchResult golden = iss.run(program);

    const auto mismatch = fuzz::compare(dut_out.arch, golden);
    ASSERT_FALSE(mismatch.has_value())
        << soc::core_name(kind) << " diverged on clean-core program " << t
        << ": " << fuzz::describe(*mismatch);
    EXPECT_TRUE(dut_out.firings.empty())
        << "disabled bugs must never fire (program " << t << ")";

    // compare() is the oracle of record; cross-check the raw final state
    // so an oracle gap can't mask a real divergence.
    EXPECT_EQ(dut_out.arch.regs, golden.regs) << "program " << t;
    EXPECT_EQ(dut_out.arch.instret, golden.instret) << "program " << t;
    EXPECT_EQ(dut_out.arch.halt, golden.halt) << "program " << t;
    EXPECT_EQ(dut_out.arch.commits.size(), golden.commits.size())
        << "program " << t;
    EXPECT_EQ(dut_out.arch.mcause, golden.mcause) << "program " << t;
    EXPECT_EQ(dut_out.arch.mepc, golden.mepc) << "program " << t;
  }
}

TEST_P(CleanCoreDifferential, MutatedProgramsMatchGoldenIss) {
  // Mutation injects illegal encodings and wild control flow — the trap
  // and halt paths must agree between the pair as well.
  const soc::CoreKind kind = GetParam();
  golden::Iss iss(soc::golden_config_for(kind));
  soc::Pipeline dut(soc::core_params(kind, soc::BugSet::none()));
  fuzz::SeedGenerator gen(common::make_stream(2024, 1, "differential-seed"));
  mutation::Engine engine(common::make_stream(2024, 1, "differential-mut"));

  int trapping_programs = 0;
  for (int t = 0; t < 40; ++t) {
    std::vector<isa::Word> program = gen.next_program();
    // A short mutation chain drifts well away from well-formed code.
    for (int m = 0; m < 3; ++m) {
      program = engine.mutate(program);
    }
    const soc::RunOutput dut_out = dut.run(program);
    const isa::ArchResult golden = iss.run(program);

    const auto mismatch = fuzz::compare(dut_out.arch, golden);
    ASSERT_FALSE(mismatch.has_value())
        << soc::core_name(kind) << " diverged on mutated program " << t
        << ": " << fuzz::describe(*mismatch);
    EXPECT_EQ(dut_out.arch.regs, golden.regs) << "program " << t;
    EXPECT_EQ(dut_out.arch.mcause, golden.mcause) << "program " << t;
    EXPECT_EQ(dut_out.arch.mtval, golden.mtval) << "program " << t;
    for (const isa::CommitRecord& record : golden.commits) {
      trapping_programs += record.trapped ? 1 : 0;
    }
  }
  // The guard that keeps this suite honest: mutation must actually have
  // exercised trap paths, or the agreement above proves nothing new.
  EXPECT_GT(trapping_programs, 0);
}

INSTANTIATE_TEST_SUITE_P(AllCores, CleanCoreDifferential,
                         ::testing::ValuesIn(soc::kAllCores), core_param_name);

// --- decode-cache / execution-context equivalence --------------------------------
//
// The execution-engine refactor introduced (a) a pre-decoded hot path
// (isa::DecodedProgram shared by ISS and pipeline), (b) dirty-region DRAM
// reset, and (c) reused run buffers. None of it may change any architectural
// bit: the pre-decoded overloads must be bit-identical to the per-word-decode
// reference path, on clean cores AND with every injected bug enabled, and a
// backend whose decode cache and outcome buffers are reused across many
// tests must produce the same outcomes as a backend constructed fresh for
// each test.

// Both simulators on both paths: the per-word-decode reference overloads,
// which step every instruction, against the pre-decoded hot path with its
// decode cache, decode plans and steady-state loop skip. Each side reuses one
// set of output buffers across programs, exactly the Backend::run_test
// ownership pattern, so buffer reuse is under test too.
struct PathPair {
  PathPair(soc::CoreKind core, soc::BugSet bugs)
      : PathPair(core, soc::core_params(core, bugs)) {}

  /// `core`'s golden ISS against pipelines built from `params`.
  PathPair(soc::CoreKind core, const soc::PipelineParams& params)
      : kind(core),
        dut_ref(params),
        dut_pre(params),
        iss_ref(soc::golden_config_for(core)),
        iss_pre(soc::golden_config_for(core)) {}

  /// Runs `program` four times and expects every output equal: the whole
  /// RunOutput (commits, end state, cycles, coverage, firings) and the
  /// whole ISS ArchResult. The skip reaches its end state by a jump, so no
  /// field may be left out.
  void expect_equivalent(const std::vector<isa::Word>& program,
                         const std::string& label) {
    dut_ref.run(program, dut_ref_out);
    decoded.build(program);
    dut_pre.run(program, decoded, dut_pre_out);
    ASSERT_EQ(dut_ref_out.arch.commits, dut_pre_out.arch.commits)
        << soc::core_name(kind) << " " << label
        << ": pre-decoded pipeline commit trace diverged";
    EXPECT_TRUE(dut_ref_out.arch == dut_pre_out.arch)
        << soc::core_name(kind) << " " << label << ": pipeline end state diverged";
    EXPECT_EQ(dut_ref_out.cycles, dut_pre_out.cycles)
        << soc::core_name(kind) << " " << label << ": cycle annotation diverged";
    EXPECT_EQ(dut_ref_out.firings, dut_pre_out.firings)
        << soc::core_name(kind) << " " << label << ": bug firing log diverged";
    EXPECT_TRUE(dut_ref_out.test_coverage == dut_pre_out.test_coverage)
        << soc::core_name(kind) << " " << label << ": coverage bitmap diverged";

    iss_ref.run(program, iss_ref_out);
    iss_pre.run(program, decoded, iss_pre_out);
    ASSERT_EQ(iss_ref_out.commits, iss_pre_out.commits)
        << soc::core_name(kind) << " " << label
        << ": pre-decoded ISS commit trace diverged";
    EXPECT_TRUE(iss_ref_out == iss_pre_out)
        << soc::core_name(kind) << " " << label << ": ISS end state diverged";
  }

  soc::CoreKind kind;
  soc::Pipeline dut_ref;
  soc::Pipeline dut_pre;
  golden::Iss iss_ref;
  golden::Iss iss_pre;
  isa::DecodedProgram decoded;
  soc::RunOutput dut_ref_out;
  soc::RunOutput dut_pre_out;
  isa::ArchResult iss_ref_out;
  isa::ArchResult iss_pre_out;
};

class DecodeCacheEquivalence : public ::testing::TestWithParam<soc::CoreKind> {};

TEST_P(DecodeCacheEquivalence, PreDecodedPathMatchesPerWordDecode) {
  const soc::CoreKind kind = GetParam();
  // Default (paper) bug set: V1-V6 on CVA6, V7 on Rocket, none on BOOM —
  // the injected-bug behaviours must be bit-exact through the cache too.
  PathPair paths(kind, soc::default_bugs(kind));
  fuzz::SeedGenerator gen(common::make_stream(4242, 0, "decode-cache"));
  mutation::Engine engine(common::make_stream(4242, 0, "decode-cache-mut"));

  for (int t = 0; t < 25; ++t) {
    std::vector<isa::Word> program = gen.next_program();
    if (t % 2 == 1) {
      // Mutated programs inject illegal encodings and wild control flow —
      // the cache must agree on the trap paths as well.
      for (int m = 0; m < 3; ++m) {
        program = engine.mutate(program);
      }
    }
    paths.expect_equivalent(program, "program " + std::to_string(t));
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCores, DecodeCacheEquivalence,
                         ::testing::ValuesIn(soc::kAllCores), core_param_name);

// --- steady-state loop skip -------------------------------------------------------
//
// The pre-decoded paths jump over the exactly repeating tail of a
// budget-bound test (isa/loop_probe.hpp). The jump must be invisible: on the
// mutant-lineage stream of every core and bug set, and on hand-built loops
// aimed at each rule of the state comparison, the skipping side must equal
// the per-word reference in every output. skipped_steps() shows where the
// skip ran and where it must stay out.

soc::BugSet bugs_named(soc::CoreKind kind, std::string_view which) {
  if (which == "none") {
    return soc::BugSet::none();
  }
  return which == "default" ? soc::default_bugs(kind) : soc::BugSet::all();
}

class LoopSkipEquivalence : public ::testing::TestWithParam<soc::CoreKind> {};

// Backend::run_test's lockstep verdict on `program`, text included, must
// equal the reference compare(dut, Iss::run(program)) that
// expect_equivalent just computed. Returns whether it diverged.
bool expect_reference_verdict(fuzz::Backend& backend, const PathPair& paths,
                              const std::vector<isa::Word>& program,
                              const std::string& label) {
  fuzz::TestCase test;
  test.words = program;
  const fuzz::TestOutcome& outcome = backend.run_test(test);
  const std::optional<fuzz::Mismatch> expected =
      fuzz::compare(paths.dut_ref_out.arch, paths.iss_ref_out);
  EXPECT_EQ(outcome.mismatch.has_value(), expected.has_value()) << label;
  if (outcome.mismatch && expected) {
    EXPECT_TRUE(*outcome.mismatch == *expected) << label;
    EXPECT_EQ(fuzz::describe(*outcome.mismatch), fuzz::describe(*expected))
        << label;
  }
  return expected.has_value();
}

TEST_P(LoopSkipEquivalence, LineageStreamMatchesPerWordReference) {
  const soc::CoreKind kind = GetParam();
  for (const std::string_view bugs : {"none", "default", "all"}) {
    PathPair paths(kind, bugs_named(kind, bugs));
    fuzz::BackendConfig config;
    config.core = kind;
    config.bugs = bugs_named(kind, bugs);
    fuzz::Backend backend(config);
    fuzz::SeedGenerator gen(common::make_stream(5151, 0, "loop-skip"));
    mutation::Engine engine(common::make_stream(5151, 0, "loop-skip-mut"));
    int diverged = 0;
    for (int seed = 0; seed < 16; ++seed) {
      std::vector<isa::Word> program = gen.next_program();
      for (int depth = 0; depth <= 30; ++depth) {
        if (depth > 0) {
          program = engine.mutate(program);
        }
        const std::string label = "bugs " + std::string(bugs) + ", seed " +
                                  std::to_string(seed) + ", depth " +
                                  std::to_string(depth);
        paths.expect_equivalent(program, label);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
        diverged += expect_reference_verdict(backend, paths, program, label) ? 1 : 0;
      }
    }
    // With every bug injected, the stream reaches the divergent verdicts.
    if (bugs == "all") {
      EXPECT_GT(diverged, 0) << soc::core_name(kind);
    }
    // The loop skip and the trap-sled replay ran, and only on the
    // pre-decoded side.
    EXPECT_GT(paths.dut_pre.skipped_steps(), 0U) << "bugs " << bugs;
    EXPECT_GT(paths.iss_pre.skipped_steps(), 0U) << "bugs " << bugs;
    EXPECT_EQ(paths.dut_ref.skipped_steps(), 0U);
    EXPECT_EQ(paths.iss_ref.skipped_steps(), 0U);
    EXPECT_GT(paths.dut_pre.sled_steps(), 0U) << "bugs " << bugs;
    EXPECT_GT(paths.iss_pre.sled_steps(), 0U) << "bugs " << bugs;
    EXPECT_EQ(paths.dut_ref.sled_steps(), 0U);
    EXPECT_EQ(paths.iss_ref.sled_steps(), 0U);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCores, LoopSkipEquivalence,
                         ::testing::ValuesIn(soc::kAllCores), core_param_name);

// One hand-built loop on one core: every output equal to the reference, the
// run ends at the budget, and each simulator skipped or did not, as stated.
void expect_loop(soc::CoreKind kind, soc::BugSet bugs,
                 const std::vector<isa::Word>& program, bool dut_skips,
                 bool iss_skips) {
  PathPair paths(kind, bugs);
  paths.expect_equivalent(program, "hand-built loop");
  EXPECT_EQ(paths.dut_ref_out.arch.halt, isa::HaltReason::kBudget)
      << soc::core_name(kind);
  EXPECT_EQ(paths.dut_pre.skipped_steps() > 0, dut_skips)
      << soc::core_name(kind) << ": pipeline skipped "
      << paths.dut_pre.skipped_steps() << " steps";
  EXPECT_EQ(paths.iss_pre.skipped_steps() > 0, iss_skips)
      << soc::core_name(kind) << ": ISS skipped " << paths.iss_pre.skipped_steps()
      << " steps";
}

void expect_loop_on_every_core(const std::vector<isa::Word>& program, bool skips) {
  for (const soc::CoreKind kind : soc::kAllCores) {
    expect_loop(kind, soc::default_bugs(kind), program, skips, skips);
  }
}

// x6 := the scratch region seeds use for memory traffic.
isa::Instruction load_scratch_base(isa::RegIndex rd) {
  return isa::lui(rd, static_cast<std::int32_t>(isa::kScratchBase));
}

TEST(LoopSkip, RobPointersMatchOnlyOnceEverySlotIsCovered) {
  // 80 trap-free commits cover ROB slots 0-79; the ecall's flush resets the
  // pointers, and the `jal x0, 0` loop then walks them one slot per commit.
  // Two empty ROBs with different pointers differ only in which slot points
  // they hit next, so the pipeline may skip only once slots 80-95 are
  // covered too. Skipping earlier loses those points.
  std::vector<isa::Instruction> program(80, isa::addi(1, 1, 1));
  program.push_back(isa::ecall());
  program.push_back(isa::jal(0, 0));
  expect_loop(soc::CoreKind::kBoom, soc::BugSet::none(), isa::assemble(program),
              true, true);
}

TEST(LoopSkip, CounterCsrReadBlocksSkip) {
  // `time` is instret / 8, outside the compared state: x7 holds still for a
  // few periods, then moves. No period that reads a counter repeats. Loops
  // of 2-5 instructions after 0-7 straight-line ones put the read at every
  // phase of the probe's schedule.
  for (std::size_t prefix = 0; prefix < 8; ++prefix) {
    for (int nops = 0; nops < 4; ++nops) {
      std::vector<isa::Instruction> program(prefix, isa::addi(5, 5, 1));
      program.push_back(isa::csrrs(7, isa::csr::kTime, 0));
      program.insert(program.end(), static_cast<std::size_t>(nops), isa::nop());
      program.push_back(isa::jal(0, -4 * (nops + 1)));
      expect_loop_on_every_core(isa::assemble(program), false);
    }
  }
}

TEST(LoopSkip, MidProgramSelfLoop) {
  expect_loop_on_every_core(
      isa::assemble({isa::addi(5, 0, 7), isa::addi(6, 0, 9), isa::jal(0, 0),
                     isa::addi(7, 0, 1), isa::addi(8, 0, 2)}),
      true);
}

TEST(LoopSkip, TrapLoop) {
  // ecall, four handler instructions, mret back to the jal: every period
  // flushes the ROB and scoreboard and rewrites mepc, mcause and t6.
  expect_loop_on_every_core(
      isa::assemble({isa::addi(5, 0, 3), isa::ecall(), isa::jal(0, -4)}), true);
}

TEST(LoopSkip, IdempotentStoreLoop) {
  // The first store changes DRAM (or a D$ line); every later one rewrites
  // the same bytes, so the state repeats.
  expect_loop_on_every_core(
      isa::assemble({load_scratch_base(6), isa::addi(5, 0, 0x55), isa::sd(6, 5, 0),
                     isa::jal(0, -4)}),
      true);
}

TEST(LoopSkip, FenceLoopsOverDirtyLines) {
  // FENCE writes the dirty lines back every period; FENCE.I also empties
  // the I$, which refills along the same path.
  for (const isa::Instruction& fence : {isa::fence(), isa::fence_i()}) {
    expect_loop_on_every_core(
        isa::assemble({load_scratch_base(6), isa::addi(5, 0, 0x66), isa::sd(6, 5, 0),
                       isa::sd(6, 5, 40), fence, isa::jal(0, -12)}),
        true);
  }
}

TEST(LoopSkip, ThrashedCva6DataCache) {
  // CVA6's D$ has 2 sets of 1 way: the two stores evict each other's dirty
  // line every period, and the writebacks rewrite DRAM with equal bytes.
  expect_loop(soc::CoreKind::kCva6, soc::default_bugs(soc::CoreKind::kCva6),
              isa::assemble({load_scratch_base(6), isa::addi(5, 0, 0x77),
                             isa::sd(6, 5, 0), isa::sd(6, 5, 64), isa::ld(7, 6, 8),
                             isa::jal(0, -12)}),
              true, true);
}

TEST(LoopSkip, OddPeriodOnTwoLaneBoom) {
  // A 3-instruction loop alternates lanes from one iteration to the next,
  // so the pipeline proves and replicates a 6-step period.
  expect_loop(soc::CoreKind::kBoom, soc::BugSet::none(),
              isa::assemble({isa::addi(5, 0, 1), isa::addi(6, 5, 2),
                             isa::xori(7, 6, 3), isa::jal(0, -8)}),
              true, true);
}

TEST(LoopSkip, V4FiresEveryPeriodOnCva6) {
  // Both lines have address bits [7:6] set and share CVA6's D$ set 0, so
  // every store drops the other line's writeback (V4). The replicated
  // firings must carry the right commit indices.
  PathPair paths(soc::CoreKind::kCva6, soc::default_bugs(soc::CoreKind::kCva6));
  paths.expect_equivalent(
      isa::assemble({load_scratch_base(6), isa::addi(5, 0, 0x11),
                     isa::sd(6, 5, 0xC0), isa::sd(6, 5, 0x1C0), isa::jal(0, -8)}),
      "V4 loop");
  EXPECT_GT(paths.dut_pre.skipped_steps(), 0U);
  EXPECT_GT(paths.dut_pre_out.firings.size(), 300U);
  EXPECT_EQ(paths.dut_pre_out.firings.back().id, soc::BugId::kV4LostWriteback);
}

TEST(LoopSkip, V7FiresEveryPeriodOnRocket) {
  // EBREAK traps and skips the minstret increment (V7): the period's
  // retired-instruction growth is one short of its length.
  PathPair paths(soc::CoreKind::kRocket, soc::default_bugs(soc::CoreKind::kRocket));
  paths.expect_equivalent(isa::assemble({isa::ebreak(), isa::jal(0, -4)}), "V7 loop");
  EXPECT_GT(paths.dut_pre.skipped_steps(), 0U);
  EXPECT_GT(paths.dut_pre_out.firings.size(), 100U);
  EXPECT_EQ(paths.dut_pre_out.firings.back().id, soc::BugId::kV7EbreakInstret);
  EXPECT_LT(paths.dut_pre_out.arch.instret, paths.dut_pre_out.arch.commits.size());
}

// --- trap sleds ---------------------------------------------------------------
//
// A jump into zeroed DRAM traps on every word until the budget; the
// pre-decoded paths replay the sled once two words have been stepped
// (isa/trap_sled.hpp). Each hand-built sled aims at one thing the replay
// must get right or must stay out of, and must equal the per-word
// reference in every output.

// rd := the 4 KiB-aligned `addr` (a 32-bit pattern; DRAM addresses
// sign-extend, which the physical bus ignores).
isa::Instruction load_address(isa::RegIndex rd, std::uint64_t addr) {
  return isa::lui(rd, static_cast<std::int32_t>(addr));
}

// rd := the 32-bit word `value`, in two instructions.
std::vector<isa::Instruction> load_word(isa::RegIndex rd, isa::Word value) {
  const auto hi = static_cast<std::int32_t>((value + 0x800u) & 0xfffff000u);
  const std::int64_t lo = static_cast<std::int32_t>(value) - static_cast<std::int64_t>(hi);
  return {isa::lui(rd, hi), isa::addiw(rd, rd, lo)};
}

// Runs `program` on both paths; expects every output equal, the given halt
// and, on each simulator, a replay or none.
void expect_sled(PathPair& paths, const std::vector<isa::Word>& program,
                 isa::HaltReason halt, bool replays, const std::string& label) {
  paths.expect_equivalent(program, label);
  const std::string where = std::string(soc::core_name(paths.kind)) + " " + label;
  EXPECT_EQ(paths.dut_ref_out.arch.halt, halt) << where;
  EXPECT_EQ(paths.dut_pre.sled_steps() > 0, replays)
      << where << ": pipeline replayed " << paths.dut_pre.sled_steps() << " steps";
  EXPECT_EQ(paths.iss_pre.sled_steps() > 0, replays)
      << where << ": ISS replayed " << paths.iss_pre.sled_steps() << " steps";
  EXPECT_EQ(paths.dut_ref.sled_steps() + paths.iss_ref.sled_steps(), 0U) << where;
}

void expect_sled_on_every_core(const std::vector<isa::Word>& program,
                               isa::HaltReason halt, bool replays,
                               const std::string& label) {
  for (const soc::CoreKind kind : soc::kAllCores) {
    PathPair paths(kind, soc::default_bugs(kind));
    expect_sled(paths, program, halt, replays, label);
  }
}

TEST(TrapSled, PastTheSentinelToTheBudget) {
  // The sled starts after 1-5 commits, so the budget ends it at every
  // phase of a five-commit word: on a word boundary and mid-word.
  for (std::size_t prefix = 0; prefix < 5; ++prefix) {
    std::vector<isa::Instruction> program(prefix, isa::addi(5, 5, 1));
    program.push_back(isa::jal(0, 0x800));
    expect_sled_on_every_core(isa::assemble(program), isa::HaltReason::kBudget,
                              true, "prefix " + std::to_string(prefix));
  }
}

TEST(TrapSled, BelowTheProgramWalksIntoIt) {
  // The first pass jumps ten words below the program, into the zeros
  // after the handler (fetch_in_handler, trap_inside_handler). The sled
  // stops at the program's first word; the second pass skips the jump
  // and halts on the sentinel.
  expect_sled_on_every_core(
      isa::assemble({isa::addi(5, 5, 1), isa::addi(6, 0, 2), isa::bge(5, 6, 8),
                     isa::jal(0, -52), isa::addi(7, 0, 7)}),
      isa::HaltReason::kSentinel, true, "below the program");
}

TEST(TrapSled, AcrossAFetchRegion) {
  // The sled starts at commit 3 and fills the budget with whole words, so
  // only replayed words fetch from the second region.
  expect_sled_on_every_core(
      isa::assemble({isa::nop(), load_address(6, isa::kDramBase + 0x2000),
                     isa::jalr(0, 6, -40)}),
      isa::HaltReason::kBudget, true, "across a 4 KiB region");
}

TEST(TrapSled, ThroughTheHandlersCacheSet) {
  // DRAM + 0x800 shares I$ set 0 with the handler line on every core (and
  // with kProgramBase's line on cva6), so each word's fetch and the
  // handler's reorder that set.
  const std::vector<isa::Word> program =
      isa::assemble({load_address(6, isa::kDramBase + 0x1000), isa::addi(6, 6, -0x800),
                     isa::jalr(0, 6, -8)});
  expect_sled_on_every_core(program, isa::HaltReason::kBudget, true, "set 0");
  // A one-line I$: the sled's fetch and the handler's evict each other,
  // two misses in every word, stepped and replayed alike.
  soc::PipelineParams params = soc::core_params(soc::CoreKind::kCva6);
  params.icache = soc::CacheParams{1, 1, 32};
  PathPair paths(soc::CoreKind::kCva6, params);
  expect_sled(paths, program, isa::HaltReason::kBudget, true, "one-line I$");
}

TEST(TrapSled, StoredZerosHeldInTheDataCache) {
  // The line at scratch + 0x40 sits in the D$ holding stored zeros, so the
  // replayed words there take the fetch-from-D$ point.
  expect_sled_on_every_core(
      isa::assemble({load_address(6, isa::kScratchBase), isa::sd(6, 0, 0x40),
                     isa::jalr(0, 6, 0)}),
      isa::HaltReason::kBudget, true, "D$-held zeros");
}

TEST(TrapSled, StoredWordStopsTheSled) {
  // A nop stored at scratch + 0x40 stays in the D$ over DRAM zeros: the
  // pipeline fetches it from there, so its sled must stop at it, step it,
  // and start again on the zeros after it.
  const isa::Word nop = isa::assemble({isa::nop()})[0];
  std::vector<isa::Instruction> program = load_word(7, nop);
  program.push_back(load_address(6, isa::kScratchBase));
  program.push_back(isa::sw(6, 7, 0x40));
  program.push_back(isa::jalr(0, 6, 0));
  for (const soc::CoreKind kind : soc::kAllCores) {
    PathPair paths(kind, soc::default_bugs(kind));
    expect_sled(paths, isa::assemble(program), isa::HaltReason::kBudget, true,
                "stored nop");
    const auto& commits = paths.dut_pre_out.arch.commits;
    EXPECT_TRUE(std::any_of(commits.begin(), commits.end(), [&](const isa::CommitRecord& r) {
      return (r.pc & isa::kPhysAddrMask) == isa::kScratchBase + 0x40 && r.word == nop &&
             !r.trapped;
    })) << soc::core_name(kind) << ": the stored nop was not executed";
  }
}

TEST(TrapSled, LoopAfterTheSledIsStillSkipped) {
  // An `ecall; jal x0, -4` trap loop (LoopSkip.TrapLoop) stored 64 words
  // into the zeros ends the sled after the loop probe's first scheduled
  // look, so the probe must be moved to the end of the jump to find it.
  const std::vector<isa::Word> loop = isa::assemble({isa::ecall(), isa::jal(0, -4)});
  std::vector<isa::Instruction> program = {load_address(6, isa::kScratchBase)};
  for (std::size_t i = 0; i < loop.size(); ++i) {
    for (const isa::Instruction& instr : load_word(7, loop[i])) {
      program.push_back(instr);
    }
    program.push_back(isa::sw(6, 7, static_cast<std::int64_t>(0x100 + 4 * i)));
  }
  program.push_back(isa::jalr(0, 6, 0));
  for (const soc::CoreKind kind : soc::kAllCores) {
    PathPair paths(kind, soc::default_bugs(kind));
    expect_sled(paths, isa::assemble(program), isa::HaltReason::kBudget, true,
                "self-loop after the sled");
    EXPECT_GT(paths.dut_pre.skipped_steps(), 0U) << soc::core_name(kind);
    EXPECT_GT(paths.iss_pre.skipped_steps(), 0U) << soc::core_name(kind);
  }
}

TEST(TrapSled, OffTheEndOfDram) {
  expect_sled_on_every_core(
      isa::assemble({load_address(6, isa::kDramBase + isa::kDramSizeDefault),
                     isa::jalr(0, 6, -40)}),
      isa::HaltReason::kFetchOutOfRange, true, "off the end of DRAM");
}

TEST(TrapSled, MovedTrapVectorIsNotReplayed) {
  // The stub copied to scratch + 0x100 and mtvec pointed there: the words
  // still trap and return one by one, but not through kHandlerBase.
  std::vector<isa::Instruction> program = {load_address(6, isa::kScratchBase)};
  const std::vector<isa::Word>& stub = isa::assembled_trap_handler();
  for (std::size_t i = 0; i < stub.size(); ++i) {
    for (const isa::Instruction& instr : load_word(7, stub[i])) {
      program.push_back(instr);
    }
    program.push_back(isa::sw(6, 7, static_cast<std::int64_t>(0x100 + 4 * i)));
  }
  program.push_back(isa::addi(8, 6, 0x100));
  program.push_back(isa::csrrw(0, isa::csr::kMtvec, 8));
  program.push_back(isa::jalr(0, 6, 0x400));
  expect_sled_on_every_core(isa::assemble(program), isa::HaltReason::kBudget, false,
                            "moved mtvec");
}

TEST(TrapSled, OverwrittenHandlerIsNotReplayed) {
  // addi t6, t6, 8 over the stub's addi: every trap skips a word. A sled,
  // but not the stub's.
  std::vector<isa::Instruction> program =
      load_word(7, isa::assemble({isa::addi(isa::kTrapScratchReg, isa::kTrapScratchReg, 8)})[0]);
  program.push_back(load_address(6, isa::kHandlerBase));
  program.push_back(isa::sw(6, 7, 4));
  program.push_back(isa::jal(0, 0x800));
  expect_sled_on_every_core(isa::assemble(program), isa::HaltReason::kBudget, false,
                            "overwritten handler");
}

// A backend reusing its decode cache, outcome buffers and dirty-region DRAM
// across a long test sequence must report exactly what a backend
// constructed from scratch for every single test reports.
TEST(ExecutionContextReuse, ReusedBackendMatchesFreshBackendPerTest) {
  fuzz::BackendConfig config;
  config.core = soc::CoreKind::kCva6;
  config.bugs = soc::default_bugs(soc::CoreKind::kCva6);
  config.rng_seed = 99;
  fuzz::Backend reused(config);

  // Programs generated outside the backends so both sides execute the very
  // same words (ids do not influence execution).
  fuzz::SeedGenerator gen(common::make_stream(99, 0, "ctx-reuse"));
  mutation::Engine engine(common::make_stream(99, 0, "ctx-reuse-mut"));

  for (int t = 0; t < 30; ++t) {
    fuzz::TestCase test;
    test.id = static_cast<std::uint64_t>(t) + 1;
    test.words = gen.next_program();
    if (t % 3 == 2) {
      test.words = engine.mutate(test.words);
    }

    fuzz::Backend fresh(config);
    EXPECT_TRUE(reused.run_test(test) == fresh.run_test(test))
        << "outcome diverged on test " << t;
  }
  // The decode cache must actually have been reused (warm across tests),
  // or this test proves nothing about the reuse path.
  EXPECT_GT(reused.decode_cache().lookups(), reused.decode_cache().misses());
}

// --- lockstep check -------------------------------------------------------------
//
// Backend::run_test checks the DUT's trace on the golden model as it
// commits (golden::Iss::check) and completes the verdict with fuzz::compare
// from where the check stopped. Whatever the DUT's trace, that verdict must
// equal the reference compare(dut, Iss::run(program)). Each case starts
// from the golden model's own trace and alters one thing.

struct Lockstep {
  explicit Lockstep(std::vector<isa::Word> words)
      : program(std::move(words)),
        iss(soc::golden_config_for(soc::CoreKind::kRocket)),
        reference(golden::Iss(soc::golden_config_for(soc::CoreKind::kRocket))
                      .run(program)) {}

  /// Checks `dut` in lockstep, expects the reference verdict and its text,
  /// and returns the verdict; `checked` keeps where the check stopped.
  std::optional<fuzz::Mismatch> verdict(const isa::ArchResult& dut) {
    decoded.build(program);
    checked = iss.check(program, decoded, dut.commits, golden);
    std::optional<fuzz::Mismatch> lockstep = fuzz::compare(dut, golden, checked);
    const std::optional<fuzz::Mismatch> expected = fuzz::compare(dut, reference);
    EXPECT_EQ(lockstep.has_value(), expected.has_value());
    if (lockstep && expected) {
      EXPECT_TRUE(*lockstep == *expected);
      EXPECT_EQ(fuzz::describe(*lockstep), fuzz::describe(*expected));
    }
    return lockstep;
  }

  std::vector<isa::Word> program;
  golden::Iss iss;
  isa::DecodedProgram decoded;
  isa::ArchResult golden;
  isa::ArchResult reference;
  std::size_t checked = 0;
};

std::vector<isa::Word> straight_line() {
  return isa::assemble({isa::addi(5, 0, 7), isa::addi(6, 5, 2),
                        load_scratch_base(7), isa::sd(7, 6, 8),
                        isa::ld(8, 7, 8), isa::addi(9, 8, 1)});
}

TEST(LockstepCheck, DivergenceAtRecordZeroStopsTheIss) {
  Lockstep run(straight_line());
  isa::ArchResult dut = run.reference;
  dut.commits[0].rd_value += 1;
  const auto verdict = run.verdict(dut);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->commit_index, 0U);
  EXPECT_EQ(fuzz::describe(*verdict).rfind("commit 0 (", 0), 0U);
  EXPECT_EQ(run.checked, 0U);
  EXPECT_EQ(run.golden.commits.size(), 1U) << "the ISS ran past the divergence";
}

TEST(LockstepCheck, DivergenceInsideAReplicatedLoopTail) {
  Lockstep run(isa::assemble({isa::addi(5, 0, 7), isa::jal(0, 0)}));
  ASSERT_EQ(run.reference.halt, isa::HaltReason::kBudget);
  isa::ArchResult dut = run.reference;
  const std::size_t at = dut.commits.size() - 100;
  dut.commits[at].pc += 4;
  const auto verdict = run.verdict(dut);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->commit_index, at);
  EXPECT_EQ(run.checked, at);
  EXPECT_GT(run.iss.skipped_steps(), 0U) << "the loop was stepped, not replicated";
  EXPECT_LT(isa::LoopProbe::kFirstStep + isa::LoopProbe::kMaxPeriod, at);
}

TEST(LockstepCheck, DivergenceInsideATrapSled) {
  // Past the sentinel into zeroed DRAM: the sled runs to the budget.
  Lockstep run(isa::assemble({isa::addi(5, 5, 1), isa::jal(0, 0x800)}));
  isa::ArchResult dut = run.reference;
  // A trapped sled word with another cause, as V3 can commit.
  std::size_t at = dut.commits.size() / 2;
  while (!dut.commits[at].trapped) {
    ++at;
  }
  dut.commits[at].cause =
      static_cast<std::uint64_t>(isa::TrapCause::kInstrAccessFault);
  const auto verdict = run.verdict(dut);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->commit_index, at);
  EXPECT_EQ(run.checked, at);
  EXPECT_NE(fuzz::describe(*verdict).find("trap cause"), std::string::npos);
  EXPECT_GT(run.iss.sled_steps(), 0U) << "the sled was stepped, not replayed";
}

TEST(LockstepCheck, DivergenceAtAMisalignedFetch) {
  // jal to pc + 2: the fetch there commits a trap record with no word.
  Lockstep run(isa::assemble({isa::addi(5, 0, 1), isa::jal(0, 2)}));
  isa::ArchResult dut = run.reference;
  ASSERT_GT(dut.commits.size(), 2U);
  ASSERT_EQ(dut.commits[2].pc & 0b11, 2U);
  dut.commits[2].cause =
      static_cast<std::uint64_t>(isa::TrapCause::kInstrAccessFault);
  const auto verdict = run.verdict(dut);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->commit_index, 2U);
  EXPECT_EQ(run.checked, 2U);
}

TEST(LockstepCheck, DutTraceOneRecordShortRunsTheIssOn) {
  Lockstep run(straight_line());
  isa::ArchResult dut = run.reference;
  dut.commits.pop_back();
  const auto verdict = run.verdict(dut);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(run.checked, dut.commits.size());
  // The golden length comes from running on past the DUT's last record.
  EXPECT_EQ(run.golden.commits.size(), run.reference.commits.size());
  EXPECT_EQ(fuzz::describe(*verdict),
            "trace length " + std::to_string(dut.commits.size()) + " vs " +
                std::to_string(run.reference.commits.size()));
}

TEST(LockstepCheck, DutTraceOneRecordLong) {
  Lockstep run(straight_line());
  isa::ArchResult dut = run.reference;
  dut.commits.push_back(dut.commits.back());
  const auto verdict = run.verdict(dut);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(run.checked, run.reference.commits.size());
  EXPECT_EQ(verdict->commit_index, run.reference.commits.size());
}

TEST(LockstepCheck, EndStateOnlyDifference) {
  Lockstep run(straight_line());
  isa::ArchResult dut = run.reference;
  dut.regs[9] += 1;
  const auto verdict = run.verdict(dut);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(run.checked, dut.commits.size());
  EXPECT_EQ(fuzz::describe(*verdict).rfind("end state: final x9", 0), 0U);
}

TEST(LockstepCheck, IgnoredFieldDifferenceIsRunPast) {
  Lockstep run(straight_line());
  isa::ArchResult dut = run.reference;
  // The first addi writes no memory and does not trap, so its memory and
  // cause fields are not compared.
  ASSERT_FALSE(dut.commits[0].wrote_mem || dut.commits[0].trapped);
  dut.commits[0].mem_value = 0xdead;
  dut.commits[0].cause = 7;
  ASSERT_FALSE(dut.commits[0] == run.reference.commits[0]);
  EXPECT_FALSE(run.verdict(dut).has_value());
  EXPECT_EQ(run.checked, dut.commits.size());
  EXPECT_EQ(run.golden.commits, run.reference.commits);
}

// --- behaviour lock -------------------------------------------------------------
//
// The equivalence tests compare two execution paths of one build, so a
// change that moves both paths at once passes them. This lock folds the DUT
// results and the verdicts of a fixed lineage stream into one FNV-1a-64
// digest per (core, bug set) and compares it with constants recorded before
// the steady-state loop skip (docs/ARCHITECTURE.md, "Steady-state loops")
// landed. About a fifth of these tests run into the instruction budget, so
// the skip path is inside the lock. A deliberate behaviour change updates
// the constants in the same change, and says so.

class Fnv1a64 {
 public:
  void add(std::uint64_t value) noexcept {
    for (unsigned i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * kPrime;
    }
  }
  void add(std::string_view text) noexcept {
    add(text.size());
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<std::uint8_t>(c)) * kPrime;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void fold_outcome(const fuzz::TestOutcome& outcome, Fnv1a64& digest) {
  const soc::RunOutput& dut = outcome.dut;
  digest.add(dut.test_coverage.universe());
  for (const std::uint64_t word : dut.test_coverage.words()) {
    digest.add(word);
  }
  digest.add(dut.arch.commits.size());
  digest.add(dut.cycles);
  digest.add(outcome.mismatch ? 1 : 0);
  digest.add(outcome.mismatch ? fuzz::describe(*outcome.mismatch)
                              : std::string());
  digest.add(outcome.mismatch ? outcome.mismatch->commit_index : 0);
  digest.add(dut.firings.size());
  for (const soc::BugFiring& firing : dut.firings) {
    digest.add(static_cast<std::uint64_t>(firing.id));
    digest.add(firing.commit_index);
  }
}

TEST(BehaviourLock, LineageOutcomesMatchRecordedDigests) {
  struct Case {
    soc::CoreKind core;
    const char* bugs;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {soc::CoreKind::kCva6, "none", 0x42802f0283e1e8f6ULL},
      {soc::CoreKind::kCva6, "default", 0x6f3b88af42235e87ULL},
      {soc::CoreKind::kCva6, "all", 0x3371263d033b00e6ULL},
      {soc::CoreKind::kRocket, "none", 0x132aecbce49cb560ULL},
      {soc::CoreKind::kRocket, "default", 0x20fac1a988dc908bULL},
      {soc::CoreKind::kRocket, "all", 0x658f2ee0c9806c1eULL},
      {soc::CoreKind::kBoom, "none", 0x00496bc211034ed3ULL},
      {soc::CoreKind::kBoom, "default", 0x00496bc211034ed3ULL},
      {soc::CoreKind::kBoom, "all", 0x68f5ded6b280b318ULL},
  };
  constexpr int kSeeds = 40;
  constexpr int kLineageDepth = 50;

  for (const Case& c : cases) {
    fuzz::BackendConfig config;
    config.core = c.core;
    config.bugs = bugs_named(c.core, c.bugs);
    config.rng_seed = 7;
    fuzz::Backend backend(config);

    Fnv1a64 digest;
    int tests = 0;
    int budget_bound = 0;
    for (int s = 0; s < kSeeds; ++s) {
      fuzz::TestCase test = backend.make_seed();
      for (int depth = 0; depth <= kLineageDepth; ++depth) {
        if (depth > 0) {
          test = backend.make_mutant(test);
        }
        const fuzz::TestOutcome& outcome = backend.run_test(test);
        fold_outcome(outcome, digest);
        ++tests;
        budget_bound +=
            outcome.dut.arch.halt == isa::HaltReason::kBudget ? 1 : 0;
      }
    }
    EXPECT_EQ(digest.value(), c.digest)
        << soc::core_name(c.core) << " with bugs " << c.bugs
        << ": the outcome stream changed";
    // The lock must reach the budget-bound tail, or it cannot see the skip.
    EXPECT_GT(budget_bound, tests / 10) << soc::core_name(c.core);
  }
}

TEST(DifferentialOracle, EnabledBugStillDiverges) {
  // Sanity inversion: the equivalence above must come from the cores
  // being clean, not from an oracle that never fires. V5 (silent load
  // fault) diverges quickly on CVA6 under the seed generator's mix.
  golden::Iss iss(soc::golden_config_for(soc::CoreKind::kCva6));
  soc::Pipeline dut(soc::core_params(
      soc::CoreKind::kCva6, soc::BugSet::single(soc::BugId::kV5SilentLoadFault)));
  fuzz::SeedGenerator gen(common::make_stream(2024, 2, "diff-bug"));

  bool diverged = false;
  for (int t = 0; t < 200 && !diverged; ++t) {
    const std::vector<isa::Word> program = gen.next_program();
    const soc::RunOutput dut_out = dut.run(program);
    const isa::ArchResult golden = iss.run(program);
    diverged = fuzz::compare(dut_out.arch, golden).has_value();
  }
  EXPECT_TRUE(diverged) << "V5 never diverged: the oracle is vacuous";
}

}  // namespace
}  // namespace mabfuzz
