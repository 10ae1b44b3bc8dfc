#pragma once
// Multi-armed bandit interface with the paper's reset-arm extension.
//
// Contract:
//  - select() returns the arm to pull this round.
//  - update(arm, reward) feeds the observed reward for that pull.
//  - reset_arm(arm) tells the algorithm the arm was *replaced by a fresh
//    arm* (MABFuzz Sec. III-C); the algorithm must forget / re-initialise
//    that arm's statistics per Algorithms 1 and 2.
//  - requires_normalized_reward() is true for algorithms (EXP3) whose
//    update assumes rewards in [0, 1]; the caller then divides the raw
//    coverage reward by |C| (Algorithm 2, line 6).
//  - save_state() appends the algorithm's complete mutable state (value
//    estimates, pull counts, weights, RNG stream position) as
//    deterministic little-endian bytes (common/bytes.hpp), and
//    restore_state() reads exactly those bytes back: a checkpoint resume
//    (harness/checkpoint.hpp) continues the bandit from them, and two
//    bandits with equal blobs select identical arm sequences forever.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace mabfuzz::mab {

/// The byte appenders of every save_state() implementation.
inline void state_put_u64(std::string& out, std::uint64_t v) {
  common::put_u64(out, v);
}

inline void state_put_f64(std::string& out, double v) {
  common::put_f64(out, v);
}

inline void state_put_rng(std::string& out,
                          const common::Xoshiro256StarStar& rng) {
  common::put_rng(out, rng);
}

class Bandit {
 public:
  virtual ~Bandit() = default;

  [[nodiscard]] virtual std::size_t select() = 0;
  virtual void update(std::size_t arm, double reward) = 0;
  virtual void reset_arm(std::size_t arm) = 0;

  [[nodiscard]] virtual bool requires_normalized_reward() const noexcept {
    return false;
  }
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Appends the algorithm's complete mutable state to `out` (see the
  /// file comment). A checkpoint resume restores the bandit from these
  /// bytes instead of replaying the campaign, so a bandit that leaves
  /// any state out resumes wrong — the resume's round-trip check then
  /// refuses it.
  virtual void save_state(std::string& out) const = 0;

  /// The exact inverse of save_state(): reads the bytes it appended and
  /// overwrites this bandit's state with them. Throws std::runtime_error
  /// (through `in`) on a truncated image.
  virtual void restore_state(common::ByteReader& in) = 0;

  [[nodiscard]] std::size_t num_arms() const noexcept { return num_arms_; }

 protected:
  explicit Bandit(std::size_t num_arms);

  /// Uniformly random tie-break among the arms maximising `score(arm)`.
  template <typename ScoreFn>
  [[nodiscard]] std::size_t argmax_random_ties(ScoreFn&& score,
                                               common::Xoshiro256StarStar& rng) const {
    std::size_t best = 0;
    double best_score = score(std::size_t{0});
    std::size_t ties = 1;
    for (std::size_t a = 1; a < num_arms_; ++a) {
      const double s = score(a);
      if (s > best_score) {
        best_score = s;
        best = a;
        ties = 1;
      } else if (s == best_score) {
        // Reservoir-style uniform choice among ties.
        ++ties;
        if (rng.next_below(ties) == 0) {
          best = a;
        }
      }
    }
    return best;
  }

 private:
  std::size_t num_arms_;
};

/// Unified bandit construction parameters. Every registered policy reads
/// the fields it cares about and ignores the rest; defaults are the paper's
/// Sec. IV-A values. Construction goes through mab/registry.hpp
/// (make_bandit(name, config) / BanditRegistry), keyed by policy name:
/// "epsilon-greedy", "ucb", "exp3", "thompson".
struct BanditConfig {
  std::size_t num_arms = 10;
  double epsilon = 0.1;       // ε-greedy exploration rate
  double eta = 0.1;           // EXP3 learning rate (paper Sec. IV-A)
  std::uint64_t rng_seed = 1; // derived stream seed
};

}  // namespace mabfuzz::mab
