#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace mabfuzz::common {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return std::rotl(x, k);
}
}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) {
    word = sm.next();
  }
  // An all-zero state is a fixed point of xoshiro; SplitMix64 cannot emit
  // four consecutive zeros, but keep the guard for belt and braces.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x1ULL;
  }
}

void Xoshiro256StarStar::set_state(const std::array<std::uint64_t, 4>& state) {
  if ((state[0] | state[1] | state[2] | state[3]) == 0) {
    throw std::invalid_argument(
        "the all-zero xoshiro256** state is a fixed point, not a stream");
  }
  state_ = state;
}

std::uint64_t Xoshiro256StarStar::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Xoshiro256StarStar::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) {
    return 0;
  }
  // Lemire's method: multiply-high with rejection of the biased region.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (-bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Xoshiro256StarStar::next_range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1ULL;
  // span == 0 encodes the full 2^64 range (lo == INT64_MIN, hi == INT64_MAX).
  const std::uint64_t off = (span == 0) ? next() : next_below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + off);
}

double Xoshiro256StarStar::next_double() noexcept {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256StarStar::next_bool(double p) noexcept {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return next_double() < p;
}

std::size_t Xoshiro256StarStar::next_weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      total += w;
    }
  }
  if (total <= 0.0 || !std::isfinite(total)) {
    return weights.size();
  }
  double target = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) {
      return i;
    }
    target -= w;
  }
  // Floating-point slop: fall back to the last positive weight.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) {
      return i - 1;
    }
  }
  return weights.size();
}

std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t run,
                          std::string_view tag) noexcept {
  // FNV-1a over the tag gives a stable 64-bit digest; SplitMix64 then mixes
  // the three ingredients so that nearby (seed, run) pairs decorrelate.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : tag) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  SplitMix64 sm(root_seed ^ rotl(run + 0x9e3779b97f4a7c15ULL, 31) ^ h);
  sm.next();
  return sm.next();
}

Xoshiro256StarStar make_stream(std::uint64_t root_seed, std::uint64_t run,
                               std::string_view tag) noexcept {
  return Xoshiro256StarStar(derive_seed(root_seed, run, tag));
}

}  // namespace mabfuzz::common
