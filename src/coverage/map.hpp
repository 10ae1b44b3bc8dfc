#pragma once
// Dense coverage bitmaps and the accumulated-coverage bookkeeping the
// reward computation needs: covL (new for this arm) and covG (new
// globally) from the paper's Sec. III-B.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "coverage/registry.hpp"

namespace mabfuzz::coverage {

/// Fixed-size bitset over the registry's id space.
class Map {
 public:
  Map() = default;
  explicit Map(std::size_t num_points);

  void resize(std::size_t num_points);
  [[nodiscard]] std::size_t universe() const noexcept { return num_points_; }

  // set/test/any are defined inline: set() alone runs hundreds of times
  // per simulated instruction via Context::hit, so the call must not cross
  // a translation-unit boundary.
  void set(PointId id) noexcept {
    if (id < num_points_) {
      words_[id / 64] |= 1ULL << (id % 64);
    }
  }
  [[nodiscard]] bool test(PointId id) const noexcept {
    if (id >= num_points_) {
      return false;
    }
    return (words_[id / 64] >> (id % 64)) & 1ULL;
  }

  /// Sets point `base + i` for every set bit i of `mask`: observationally
  /// one set() per bit (ids outside the universe are ignored), done as at
  /// most two word ORs. Emits a block of related points, such as the six
  /// condition sub-points of one mnemonic, in one step.
  void set_bits(PointId base, std::uint64_t mask) noexcept {
    if (base >= num_points_) {
      return;
    }
    if (const std::size_t room = num_points_ - base; room < 64) {
      mask &= (1ULL << room) - 1;
    }
    const std::size_t word = base / 64;
    const unsigned shift = base % 64;
    words_[word] |= mask << shift;
    // Bits that spill into the next word lie inside the universe (the mask
    // was clipped to it), so that word exists whenever they are non-zero.
    if (shift != 0 && (mask >> (64 - shift)) != 0) {
      words_[word + 1] |= mask >> (64 - shift);
    }
  }

  /// Population count.
  [[nodiscard]] std::size_t count() const noexcept;

  /// this |= other. Maps must share a universe size.
  void merge(const Map& other) noexcept;

  /// Number of bits set in `this` but not in `other` (|this \ other|).
  /// Words of `this` beyond `other`'s storage count in full.
  [[nodiscard]] std::size_t count_new(const Map& other) const noexcept;

  /// Bits set in `this` but not in `other`, as a new map.
  [[nodiscard]] Map difference(const Map& other) const;

  /// True when no bit of `this \ other` is set.
  [[nodiscard]] bool subset_of(const Map& other) const noexcept;

  void clear() noexcept;

  /// True when at least one bit is set; returns at the first nonzero word
  /// instead of popcounting the whole map.
  [[nodiscard]] bool any() const noexcept {
    for (const std::uint64_t w : words_) {
      if (w != 0) {
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] bool empty() const noexcept { return !any(); }

  /// Becomes a copy of `other`, reusing this map's existing word storage
  /// (no reallocation when the universes already match). Behaviorally plain
  /// copy assignment — the name exists to make buffer-reuse intent explicit
  /// at hot-path call sites.
  void assign_from(const Map& other) { *this = other; }

  /// The raw 64-bit backing words, lowest point id in bit 0 of word 0.
  /// Bits at or above universe() are always zero — the serialization
  /// surface of the mabfuzz-corpus-v2 artifact (docs/ARTIFACTS.md).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Rebuilds the map from serialized backing words. `words` must be
  /// exactly the storage size for `num_points` (throws
  /// std::invalid_argument otherwise — a corrupt artifact fails loudly).
  void assign_words(std::size_t num_points, std::span<const std::uint64_t> words);

  /// Appends the backing words (u64 count, then the words) to a state
  /// image. restore_state() reads them back into this map, whose
  /// universe stays: the stored word count must be exactly its storage
  /// size and no bit may lie beyond it, else std::runtime_error through
  /// `in`.
  void save_state(std::string& out) const;
  void restore_state(common::ByteReader& in);

  /// O(1) storage exchange; the scratch-recycling primitive.
  void swap(Map& other) noexcept {
    std::swap(num_points_, other.num_points_);
    words_.swap(other.words_);
  }

  friend bool operator==(const Map& a, const Map& b) noexcept {
    return a.num_points_ == b.num_points_ && a.words_ == b.words_;
  }

 private:
  std::size_t num_points_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Tracks accumulated global coverage plus the per-test delta extraction
/// used for rewards and interesting-test detection.
class Accumulator {
 public:
  Accumulator() = default;
  explicit Accumulator(std::size_t num_points) : global_(num_points) {}

  void resize(std::size_t num_points) { global_.resize(num_points); }

  /// Merges a test's hit map; returns how many points were globally new.
  std::size_t absorb(const Map& test_map);

  [[nodiscard]] const Map& global() const noexcept { return global_; }
  [[nodiscard]] std::size_t covered() const noexcept { return global_.count(); }
  [[nodiscard]] std::size_t universe() const noexcept { return global_.universe(); }

  /// Covered fraction in [0,1]; 0 for an empty universe.
  [[nodiscard]] double fraction() const noexcept;

  /// The global map's save_state / restore_state.
  void save_state(std::string& out) const { global_.save_state(out); }
  void restore_state(common::ByteReader& in) { global_.restore_state(in); }

 private:
  Map global_;
};

}  // namespace mabfuzz::coverage
