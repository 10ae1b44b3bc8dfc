#pragma once
// The fuzzing backend: everything below the scheduling policy. It owns the
// DUT pipeline, the golden ISS, the seed generator and the mutation engine,
// and executes one test end-to-end (simulate DUT -> simulate golden ->
// differential compare -> coverage extraction). Every scheduling policy
// shares this object completely, so experiments isolate the policy — the
// paper's experimental control (docs/ARCHITECTURE.md, "Campaign data
// flow").

#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "coverage/map.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/seedgen.hpp"
#include "fuzz/test_case.hpp"
#include "golden/iss.hpp"
#include "mutation/engine.hpp"
#include "soc/cores.hpp"
#include "soc/pipeline.hpp"

namespace mabfuzz::fuzz {

struct BackendConfig {
  soc::CoreKind core = soc::CoreKind::kRocket;
  soc::BugSet bugs;  // bug set injected into the DUT
  SeedGenConfig seedgen{};
  mutation::EngineConfig mutation{};
  /// Optional adaptive mutation-operator policy (paper Sec. V extension);
  /// null keeps TheHuzz's static operator distribution.
  std::shared_ptr<mutation::OperatorPolicy> operator_policy;
  std::uint64_t rng_seed = 1;
  std::uint64_t rng_run = 0;  // repetition index (decorrelates repetitions)
};

/// Everything one executed test tells the scheduler.
struct TestOutcome {
  coverage::Map coverage;            // per-test hit map
  bool mismatch = false;             // golden-model divergence detected
  std::string mismatch_description;
  std::size_t mismatch_commit = 0;
  soc::FiringLog firings;            // injected-bug activations in the DUT
  std::uint64_t dut_cycles = 0;
  std::size_t commits = 0;
};

/// Execution scratch, reused across runs: the decode cache shared by the
/// DUT pipeline and the golden ISS, and both simulators' output buffers
/// (commit vectors, firing log, coverage map). Steady-state execution
/// performs no heap allocation through these (the equivalence suite in
/// tests/test_differential.cpp locks in that reuse changes no result).
struct ExecutionContext {
  isa::DecodedProgram decoded;
  soc::RunOutput dut_out;
  isa::ArchResult golden_out;
};

class Backend {
 public:
  explicit Backend(const BackendConfig& config);

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Simulates `test` on the DUT and the golden model and compares.
  [[nodiscard]] TestOutcome run_test(const TestCase& test);

  /// Same, recycling the caller's outcome buffers: `out` is fully
  /// overwritten; its coverage map and firing log are swapped with the
  /// backend scratch, so a caller that reuses one TestOutcome across steps
  /// allocates nothing per test.
  void run_test(const TestCase& test, TestOutcome& out);

  /// Fresh random seed test (ids assigned by this backend).
  [[nodiscard]] TestCase make_seed();

  /// Fresh seed with an explicit instruction count (adaptive test-length
  /// policies); 0 uses the configured length.
  [[nodiscard]] TestCase make_seed(unsigned length);

  /// One mutant of `parent`; the applied operators are recorded in the
  /// mutant's mutation_ops for operator-level credit assignment.
  [[nodiscard]] TestCase make_mutant(const TestCase& parent);

  /// The operator policy the mutation engine consults (a no-op learner
  /// unless BackendConfig::operator_policy was set).
  [[nodiscard]] mutation::OperatorPolicy& mutation_policy() noexcept {
    return mutation_.policy();
  }

  [[nodiscard]] std::size_t coverage_universe() const noexcept {
    return dut_.coverage_universe();
  }
  [[nodiscard]] const soc::Pipeline& dut() const noexcept { return dut_; }
  [[nodiscard]] const BackendConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t tests_executed() const noexcept {
    return tests_executed_;
  }
  /// The reusable scratch. The decode-cache counters and the raw
  /// architectural traces (dut_out.arch / cycles, golden_out) are from the
  /// last run_test; the scratch's coverage map and firing log are NOT — they
  /// were swapped into the caller's TestOutcome.
  [[nodiscard]] const ExecutionContext& execution_context() const noexcept {
    return scratch_;
  }

  /// Appends the backend's complete mutable state: both RNG streams (seed
  /// generation, mutation), the operator counts, the operator policy, the
  /// next test id and the tests executed. The simulators are not state
  /// (both start every test from a cold reset), nor is the decode cache
  /// (its contents never change a result, only its hit counters).
  /// restore_state() is the exact inverse (checkpoint resume).
  void save_state(std::string& out) const;
  void restore_state(common::ByteReader& in);

 private:
  BackendConfig config_;
  soc::Pipeline dut_;
  golden::Iss golden_;
  SeedGenerator seedgen_;
  mutation::Engine mutation_;
  ExecutionContext scratch_;
  std::uint64_t next_test_id_ = 1;
  std::uint64_t tests_executed_ = 0;
};

}  // namespace mabfuzz::fuzz
