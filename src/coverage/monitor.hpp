#pragma once
// The γ-window coverage monitor from MABFuzz Sec. III-C: an arm whose last
// γ selected iterations produced no new (arm-local) coverage is declared
// *depleted* and must be reset (replaced by a fresh seed).

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace mabfuzz::coverage {

class GammaWindowMonitor {
 public:
  /// `gamma` is the reset threshold (paper default: 3). gamma == 0 disables
  /// depletion detection entirely (the preliminary formulation of Sec. III-B).
  explicit GammaWindowMonitor(std::size_t gamma = 3) noexcept : gamma_(gamma) {}

  /// Records the coverage gain of one iteration in which this arm was
  /// selected. Returns true when the arm has just become depleted.
  bool record(std::size_t new_points) noexcept;

  [[nodiscard]] bool depleted() const noexcept {
    return gamma_ != 0 && zero_streak_ >= gamma_;
  }

  [[nodiscard]] std::size_t zero_streak() const noexcept { return zero_streak_; }
  [[nodiscard]] std::size_t gamma() const noexcept { return gamma_; }

  /// Iterations recorded since construction or the last reset().
  [[nodiscard]] std::uint64_t observations() const noexcept {
    return observations_;
  }
  /// How many times record() reported a fresh depletion (the streak crossing
  /// gamma counts once; staying above it does not re-trigger).
  [[nodiscard]] std::uint64_t depletion_events() const noexcept {
    return depletion_events_;
  }

  /// Forgets history (called when the arm is reset to a fresh seed).
  void reset() noexcept;

  /// The three counters (streak, observations, depletion events); gamma
  /// is configuration. restore_state() is the exact inverse.
  void save_state(std::string& out) const;
  void restore_state(common::ByteReader& in);

 private:
  std::size_t gamma_;
  std::size_t zero_streak_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t depletion_events_ = 0;
};

}  // namespace mabfuzz::coverage
