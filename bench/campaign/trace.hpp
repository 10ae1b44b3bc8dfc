#pragma once
// Per-layer span accounting for the traced run of the campaign benchmark.
//
// The traced run re-drives a workload's policy step from the benchmark's
// own files and wraps every call into a library layer in a Span. Spans are
// not nested and not stored individually: each one adds its duration to
// its layer's total, so a step's untimed remainder (policy glue plus the
// clock reads themselves) is the step time the layers do not account for.
//
// now_ns() is the benchmark's only clock read. Every host timing the
// benchmark reports (untraced and traced) goes through it.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace campaign_bench {

enum class Layer : std::uint8_t {
  kMutation,  // Backend::make_seed / make_mutant, operator-policy feedback
  kDecode,    // isa::DecodedProgram::build
  kPipeline,  // soc::Pipeline::run
  kIss,       // golden::Iss::run
  kOracle,    // fuzz::compare
  kFold,      // Accumulator::absorb, Map::merge, core::compute_reward
  kBandit,    // mab::Bandit select / update / reset_arm
  kSched,     // core::Arm, fuzz::TestPool and test-database bookkeeping
  kCorpus,    // fuzz::Corpus::offer
  kCount,
};

inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

/// Metric-name prefix of each layer, in Layer order.
inline constexpr std::array<std::string_view, kNumLayers> kLayerNames = {
    "mutation",     "isa.decode",   "soc.pipeline",
    "golden.iss",   "fuzz.oracle",  "coverage.fold",
    "mab.bandit",   "core.sched",   "fuzz.corpus.offer"};

/// Host nanoseconds on the monotonic clock. Benchmark timing only: no
/// value read here reaches a campaign, so campaign results stay
/// deterministic.
inline std::uint64_t now_ns() noexcept {
  // detlint:allow(nondet-source)
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch).count());
}

inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Summed host time per layer over a traced run.
struct LayerTotals {
  std::array<std::uint64_t, kNumLayers> ns{};

  [[nodiscard]] std::uint64_t sum() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t v : ns) {
      total += v;
    }
    return total;
  }
  [[nodiscard]] std::uint64_t operator[](Layer layer) const noexcept {
    return ns[static_cast<std::size_t>(layer)];
  }
};

/// Times one call into a layer: construction to destruction.
class Span {
 public:
  Span(LayerTotals& totals, Layer layer) noexcept
      : slot_(totals.ns[static_cast<std::size_t>(layer)]), start_(now_ns()) {}
  ~Span() { slot_ += now_ns() - start_; }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t& slot_;
  std::uint64_t start_;
};

}  // namespace campaign_bench
