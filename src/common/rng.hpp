#pragma once
// Deterministic pseudo-random number generation for every stochastic
// component in the system.
//
// Reproducibility contract (docs/ARCHITECTURE.md): every component owns an
// independent Xoshiro256StarStar stream derived from (experiment seed,
// run index, component tag) via SplitMix64, so results are bit-identical
// across runs with the same CLI arguments and immune to changes in the
// *order* in which unrelated components consume randomness.

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace mabfuzz::common {

/// SplitMix64: tiny, well-distributed generator used to seed larger state.
/// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the workhorse generator (Blackman & Vigna, 2018).
/// Satisfies UniformRandomBitGenerator so it can drive <random> if needed.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x8badf00ddeadbeefULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound == 0 returns 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// True with probability p (clamped to [0,1]).
  bool next_bool(double p) noexcept;

  /// Uniformly chosen index into a non-empty container of size `n`.
  std::size_t next_index(std::size_t n) noexcept {
    return static_cast<std::size_t>(next_below(n));
  }

  /// Samples an index according to the (non-negative, not necessarily
  /// normalised) weights. Returns weights.size() if all weights are zero.
  std::size_t next_weighted(std::span<const double> weights) noexcept;

  /// The raw 256-bit generator state, as checkpoints save it
  /// (common::put_rng): equal states mean the streams will produce
  /// identical futures.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return state_;
  }

  /// Continues the stream from a state() image (checkpoint restore).
  /// Throws std::invalid_argument for the all-zero state, xoshiro's fixed
  /// point, which no seeded stream ever reaches.
  void set_state(const std::array<std::uint64_t, 4>& state);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[next_index(i)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Derives a child seed for `tag` under (root_seed, run). Stable across
/// platforms; uses FNV-1a over the tag mixed through SplitMix64.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root_seed,
                                        std::uint64_t run,
                                        std::string_view tag) noexcept;

/// Convenience: a stream for component `tag` of run `run`.
[[nodiscard]] Xoshiro256StarStar make_stream(std::uint64_t root_seed,
                                             std::uint64_t run,
                                             std::string_view tag) noexcept;

}  // namespace mabfuzz::common
