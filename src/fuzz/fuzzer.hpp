#pragma once
// The scheduling-policy interface: a fuzzer is "something that executes one
// test per step against the shared backend". Every policy implements it —
// TheHuzz (static FIFO), MABFuzz (MAB seed selection), the corpus-reuse
// fuzzer, the random-regression control — so the experiment harness drives
// any of them interchangeably (by registry name; fuzz/registry.hpp).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "coverage/map.hpp"
#include "fuzz/backend.hpp"

namespace mabfuzz::fuzz {

/// What one scheduling step produced (one executed test).
struct StepResult {
  std::uint64_t test_index = 0;       // 1-based count of executed tests
  std::size_t new_global_points = 0;  // globally new coverage this test
  bool mismatch = false;
  soc::FiringLog firings;
  /// The bandit arm that scheduled this test. Engaged only for policies
  /// that select arms (MABFuzz schedulers); policies without arms
  /// (TheHuzz, random regression) leave it empty — arm 0 is a real arm,
  /// not a sentinel.
  std::optional<std::size_t> arm;

  [[nodiscard]] bool has_arm() const noexcept { return arm.has_value(); }
};

class Fuzzer {
 public:
  virtual ~Fuzzer() = default;

  /// Executes exactly one test and updates internal state.
  virtual StepResult step() = 0;

  /// Accumulated global coverage so far.
  [[nodiscard]] virtual const coverage::Accumulator& accumulated() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Appends the policy's complete mutable state to `out`: everything a
  /// freshly constructed policy of the same config needs, besides the
  /// backend's own state and the campaign's shared corpus, to continue
  /// exactly where this one is. A checkpoint resume (harness/checkpoint.hpp)
  /// restores from these bytes instead of replaying the campaign.
  virtual void save_state(std::string& out) const = 0;

  /// The exact inverse of save_state(), applied to a policy constructed
  /// from the same config. Every count is bounded before anything is
  /// allocated; a truncated or inconsistent image throws
  /// std::runtime_error naming the field.
  virtual void restore_state(common::ByteReader& in) = 0;

  /// Appends a compact witness of the decision state (steps, resets,
  /// the bandit's save_state) to `out`. Only the campaign benchmark's
  /// replicas read it now, comparing it against the library's policy, so
  /// its bytes are fixed. Policies without a bandit keep the empty
  /// default.
  virtual void append_state(std::string& out) const { (void)out; }
};

}  // namespace mabfuzz::fuzz
