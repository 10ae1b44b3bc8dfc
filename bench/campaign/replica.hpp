#pragma once
// Outside-in replicas of the scheduling policies the benchmark's workloads
// run (thehuzz, the bandit schedulers, reuse), built only from public
// library calls so that the traced run can time each layer separately.
//
// A replica owns a fuzz::Backend for seed generation and mutation (the
// backend's RNG streams are what make the test sequence reproducible), but
// executes tests on its own soc::Pipeline, golden::Iss and
// isa::DecodedProgram, so decode, DUT, ISS and compare each get a span.
// Backend::run_test does exactly these four calls; the witness check in
// main.cpp proves, on every traced run, that the replica reproduced the
// real campaign's coverage, mismatches, policy state and corpus bytes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "trace.hpp"

namespace campaign_bench {

/// The deterministic outputs a campaign and its replica must agree on.
struct Witness {
  std::uint64_t tests = 0;
  std::uint64_t covered = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::uint64_t> coverage_words;
  /// Fuzzer::append_state bytes (empty for thehuzz).
  std::string fuzzer_state;
  /// mabfuzz-corpus-v2 image of the shared corpus; empty without one.
  std::string corpus_image;

  friend bool operator==(const Witness&, const Witness&) = default;
};

[[nodiscard]] Witness witness_of(const mabfuzz::harness::Campaign& campaign);

/// Simulated quantities counted by the traced run. They are functions of
/// the seed alone and must repeat exactly from run to run.
struct WorkloadCounters {
  std::uint64_t tests = 0;
  std::uint64_t dut_commits = 0;
  std::uint64_t dut_cycles = 0;
  std::uint64_t dut_traps = 0;
  std::uint64_t iss_commits = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t new_coverage_tests = 0;
  std::uint64_t arm_resets = 0;
  std::uint64_t decode_lookups = 0;
  std::uint64_t decode_misses = 0;

  WorkloadCounters& operator+=(const WorkloadCounters& other) noexcept;
  friend bool operator==(const WorkloadCounters&, const WorkloadCounters&) = default;
};

class Replica {
 public:
  virtual ~Replica() = default;

  /// One policy step: select or pop a test, execute it, fold coverage,
  /// update the policy. Every library call lands in a layer span.
  virtual void step() = 0;

  [[nodiscard]] virtual Witness witness() const = 0;
  [[nodiscard]] virtual WorkloadCounters counters() const = 0;

  /// Writes the shared corpus to `path`; false when there is none.
  virtual bool save_corpus(const std::string& path) const = 0;
  [[nodiscard]] virtual std::size_t corpus_entries() const = 0;
};

/// Builds the replica of `config.fuzzer` ("thehuzz", a mab::BanditRegistry
/// policy, or "reuse"), constructed exactly as harness::Campaign would.
/// Spans are added to `totals`, which must outlive the replica. Throws
/// std::invalid_argument for a policy or key the replica does not model
/// (random, adaptive operators, adaptive seed length).
[[nodiscard]] std::unique_ptr<Replica> make_replica(
    const mabfuzz::harness::CampaignConfig& config, LayerTotals& totals);

}  // namespace campaign_bench
