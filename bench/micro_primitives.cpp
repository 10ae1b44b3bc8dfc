// Google-benchmark micro-benchmarks of the substrate primitives: golden
// ISS throughput, substrate-core simulation throughput, seed generation,
// mutation, coverage-map operations and bandit updates. These quantify the
// engineering claim that the whole 50K-test campaign of the paper is
// reproducible in seconds on a laptop-scale machine.

#include <benchmark/benchmark.h>

#include "common/stats.hpp"
#include "core/scheduler.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/seedgen.hpp"
#include "golden/iss.hpp"
#include "golden/memory.hpp"
#include "harness/experiment.hpp"
#include "isa/decoded_program.hpp"
#include "mab/registry.hpp"
#include "mutation/engine.hpp"
#include "soc/cores.hpp"

namespace {

using namespace mabfuzz;

std::vector<isa::Word> sample_program() {
  fuzz::SeedGenerator gen(fuzz::SeedGenConfig{}, common::Xoshiro256StarStar(1));
  return gen.next_program();
}

void BM_GoldenIssRun(benchmark::State& state) {
  golden::Iss iss(soc::golden_config_for(soc::CoreKind::kRocket));
  const auto program = sample_program();
  for (auto _ : state) {
    benchmark::DoNotOptimize(iss.run(program));
  }
}
BENCHMARK(BM_GoldenIssRun);

void BM_PipelineRun(benchmark::State& state) {
  const auto kind = static_cast<soc::CoreKind>(state.range(0));
  soc::Pipeline dut(soc::core_params(kind, soc::BugSet::none()));
  const auto program = sample_program();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dut.run(program));
  }
  state.SetLabel(std::string(soc::core_name(kind)));
}
BENCHMARK(BM_PipelineRun)->Arg(0)->Arg(1)->Arg(2);

void BM_BackendDifferentialTest(benchmark::State& state) {
  fuzz::BackendConfig config;
  config.core = soc::CoreKind::kRocket;
  fuzz::Backend backend(config);
  const fuzz::TestCase seed = backend.make_seed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.run_test(seed));
  }
}
BENCHMARK(BM_BackendDifferentialTest);

// The campaign hot path: run_test with a reused TestOutcome (the form every
// fuzzer's step() uses). The headline run_test-throughput number recorded in
// BENCH_baseline.json; items/sec = tests/sec.
void BM_BackendRunTestReused(benchmark::State& state) {
  const auto kind = static_cast<soc::CoreKind>(state.range(0));
  fuzz::BackendConfig config;
  config.core = kind;
  config.bugs = soc::default_bugs(kind);
  fuzz::Backend backend(config);
  const fuzz::TestCase seed = backend.make_seed();
  fuzz::TestOutcome outcome;
  for (auto _ : state) {
    backend.run_test(seed, outcome);
    benchmark::DoNotOptimize(outcome.coverage);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(soc::core_name(kind)));
}
BENCHMARK(BM_BackendRunTestReused)->Arg(0)->Arg(1)->Arg(2);

// DRAM reset cost, full memset vs dirty-region. The store pattern mirrors a
// typical test: program image + handler at the bottom, a handful of scattered
// scratch-region stores.
void BM_DramResetFull(benchmark::State& state) {
  golden::Memory memory(isa::kDramBase, isa::kDramSizeDefault);
  for (auto _ : state) {
    memory.store(isa::kProgramBase, 0x1234'5678, 4);
    memory.store(isa::kScratchBase, ~0ULL, 8);
    memory.store(isa::kScratchBase + 0x2000, 0xff, 1);
    memory.clear();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(isa::kDramSizeDefault));
}
BENCHMARK(BM_DramResetFull);

void BM_DramResetDirty(benchmark::State& state) {
  golden::Memory memory(isa::kDramBase, isa::kDramSizeDefault);
  for (auto _ : state) {
    memory.store(isa::kProgramBase, 0x1234'5678, 4);
    memory.store(isa::kScratchBase, ~0ULL, 8);
    memory.store(isa::kScratchBase + 0x2000, 0xff, 1);
    memory.reset();
  }
  // No SetBytesProcessed: reset() memsets only the ~3 dirty pages, so a
  // whole-DRAM bytes/sec figure would be inflated ~20x. Compare the two
  // variants by time per iteration.
}
BENCHMARK(BM_DramResetDirty);

// Decode-path cost: strict isa::decode vs the DecodedProgram cache hit.
void BM_IsaDecodePerWord(benchmark::State& state) {
  const auto program = sample_program();
  for (auto _ : state) {
    for (const isa::Word word : program) {
      benchmark::DoNotOptimize(isa::decode(word));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(program.size()));
}
BENCHMARK(BM_IsaDecodePerWord);

void BM_DecodedProgramLookup(benchmark::State& state) {
  const auto program = sample_program();
  isa::DecodedProgram decoded;
  decoded.build(program);
  for (auto _ : state) {
    for (const isa::Word word : program) {
      benchmark::DoNotOptimize(decoded.lookup(word));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(program.size()));
}
BENCHMARK(BM_DecodedProgramLookup);

void BM_SeedGeneration(benchmark::State& state) {
  fuzz::SeedGenerator gen(fuzz::SeedGenConfig{}, common::Xoshiro256StarStar(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next_program());
  }
}
BENCHMARK(BM_SeedGeneration);

void BM_Mutation(benchmark::State& state) {
  mutation::Engine engine(mutation::EngineConfig{},
                          common::Xoshiro256StarStar(3));
  const auto program = sample_program();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.mutate(program));
  }
}
BENCHMARK(BM_Mutation);

void BM_CoverageMerge(benchmark::State& state) {
  const std::size_t universe = static_cast<std::size_t>(state.range(0));
  coverage::Map a(universe);
  coverage::Map b(universe);
  common::Xoshiro256StarStar rng(4);
  for (std::size_t i = 0; i < universe / 10; ++i) {
    a.set(static_cast<coverage::PointId>(rng.next_index(universe)));
    b.set(static_cast<coverage::PointId>(rng.next_index(universe)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count_new(b));
    a.merge(b);
  }
}
BENCHMARK(BM_CoverageMerge)->Arg(8192)->Arg(24576);

void BM_BanditSelectUpdate(benchmark::State& state) {
  static constexpr std::string_view kBanditNames[] = {"epsilon-greedy", "ucb",
                                                      "exp3", "thompson"};
  mab::BanditConfig config;
  config.num_arms = 10;
  auto bandit = mab::make_bandit(
      kBanditNames[static_cast<std::size_t>(state.range(0))], config);
  common::Xoshiro256StarStar rng(5);
  for (auto _ : state) {
    const std::size_t arm = bandit->select();
    bandit->update(arm, rng.next_double());
  }
  state.SetLabel(std::string(bandit->name()));
}
BENCHMARK(BM_BanditSelectUpdate)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_TrialMatrixExpand(benchmark::State& state) {
  harness::TrialMatrix matrix;
  matrix.fuzzers = {"thehuzz", "epsilon-greedy", "ucb", "exp3", "thompson"};
  for (const double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    matrix.variants.push_back(
        {"alpha=" + std::to_string(alpha),
         {"alpha=" + std::to_string(alpha)}});
  }
  matrix.trials = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.expand());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * matrix.fuzzers.size() * matrix.variants.size() *
      matrix.trials));
}
BENCHMARK(BM_TrialMatrixExpand)->Arg(10)->Arg(100);

void BM_StatsSummarize(benchmark::State& state) {
  common::Xoshiro256StarStar rng(6);
  std::vector<double> samples(static_cast<std::size_t>(state.range(0)));
  for (double& x : samples) {
    x = rng.next_double() * 50'000.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::summarize(samples));
  }
}
BENCHMARK(BM_StatsSummarize)->Arg(32)->Arg(1024);

void BM_MabSchedulerStep(benchmark::State& state) {
  fuzz::BackendConfig backend_config;
  backend_config.core = soc::CoreKind::kCva6;
  fuzz::Backend backend(backend_config);
  core::MabFuzzConfig config;
  mab::BanditConfig bandit_config;
  bandit_config.num_arms = config.num_arms;
  core::MabScheduler scheduler(
      backend, mab::make_bandit("ucb", bandit_config), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.step());
  }
}
BENCHMARK(BM_MabSchedulerStep);

}  // namespace

BENCHMARK_MAIN();
