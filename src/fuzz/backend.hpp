#pragma once
// The fuzzing backend: everything below the scheduling policy. It owns the
// DUT pipeline, the golden ISS, the seed generator and the mutation engine,
// and executes one test end-to-end (simulate DUT -> check its trace on the
// golden model -> verdict -> coverage extraction). Every scheduling policy
// shares this object completely, so experiments isolate the policy — the
// paper's experimental control (docs/ARCHITECTURE.md, "Campaign data
// flow").

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/seedgen.hpp"
#include "fuzz/test_case.hpp"
#include "golden/iss.hpp"
#include "isa/decoded_program.hpp"
#include "mutation/engine.hpp"
#include "soc/cores.hpp"
#include "soc/pipeline.hpp"

namespace mabfuzz::fuzz {

struct BackendConfig {
  soc::CoreKind core = soc::CoreKind::kRocket;
  soc::BugSet bugs;  // bug set injected into the DUT
  /// Optional adaptive mutation-operator policy (paper Sec. V extension);
  /// null keeps TheHuzz's static operator distribution.
  std::shared_ptr<mutation::OperatorPolicy> operator_policy;
  std::uint64_t rng_seed = 1;
  std::uint64_t rng_run = 0;  // repetition index (decorrelates repetitions)
};

/// The backend's record of its last test: the DUT run (architectural
/// trace, coverage map, bug firings, cycles) and the oracle's verdict on
/// it against the golden model.
struct TestOutcome {
  soc::RunOutput dut;
  std::optional<Mismatch> mismatch;  // engaged on a golden-model divergence

  friend bool operator==(const TestOutcome&, const TestOutcome&) = default;
};

class Backend {
 public:
  explicit Backend(const BackendConfig& config);

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Simulates `test` on the DUT, checks the DUT's trace on the golden
  /// model in lockstep (golden::Iss::check) and completes the verdict with
  /// fuzz::compare from where the check stopped: the verdict equals
  /// compare(dut, Iss::run(test.words)). The outcome is the backend's own
  /// and stays valid until the next run_test, which overwrites it in place
  /// (its buffers are recycled, so steady-state execution allocates nothing
  /// per test).
  [[nodiscard]] const TestOutcome& run_test(const TestCase& test);

  /// Fresh random seed test (ids assigned by this backend).
  [[nodiscard]] TestCase make_seed();

  /// Fresh seed with an explicit instruction count (adaptive test-length
  /// policies); 0 uses fuzz::kSeedLength.
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
  /// The decode cache both simulators share (its hit counters are
  /// diagnostics; its contents never change a result).
  [[nodiscard]] const isa::DecodedProgram& decode_cache() const noexcept {
    return decoded_;
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
  isa::DecodedProgram decoded_;
  TestOutcome outcome_;
  isa::ArchResult golden_out_;  // the golden model's records, up to the check's stop
  std::uint64_t next_test_id_ = 1;
  std::uint64_t tests_executed_ = 0;
};

}  // namespace mabfuzz::fuzz
