#include "coverage/map.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"

namespace mabfuzz::coverage {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t points) {
  return (points + kWordBits - 1) / kWordBits;
}

/// Popcount that skips the libgcc call for the common empty word.
std::size_t sparse_popcount(std::uint64_t word) noexcept {
  return word == 0 ? 0 : static_cast<std::size_t>(std::popcount(word));
}
}  // namespace

Map::Map(std::size_t num_points)
    : num_points_(num_points), words_(words_for(num_points), 0) {}

void Map::resize(std::size_t num_points) {
  num_points_ = num_points;
  words_.assign(words_for(num_points), 0);
}

std::size_t Map::count() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

void Map::merge(const Map& other) noexcept {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    words_[i] |= other.words_[i];
  }
}

std::size_t Map::count_new(const Map& other) const noexcept {
  // Sparse on purpose: a test sets a few hundred bits in a few dozen of
  // the map's words and almost none of them are new, so only non-zero
  // differences are popcounted (without -mpopcnt every std::popcount is a
  // libgcc call), and blocks of eight words are ruled out with one
  // branch. This runs three times per test (reward and absorb).
  constexpr std::size_t kBlock = 8;
  const std::uint64_t* mine = words_.data();
  const std::uint64_t* theirs = other.words_.data();
  const std::size_t shared = std::min(words_.size(), other.words_.size());
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + kBlock <= shared; i += kBlock) {
    std::uint64_t any = 0;
    for (std::size_t j = i; j < i + kBlock; ++j) {
      any |= mine[j] & ~theirs[j];
    }
    if (any != 0) {
      for (std::size_t j = i; j < i + kBlock; ++j) {
        total += sparse_popcount(mine[j] & ~theirs[j]);
      }
    }
  }
  for (; i < shared; ++i) {
    total += sparse_popcount(mine[i] & ~theirs[i]);
  }
  for (; i < words_.size(); ++i) {
    total += sparse_popcount(mine[i]);
  }
  return total;
}

Map Map::difference(const Map& other) const {
  Map out(num_points_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t theirs = i < other.words_.size() ? other.words_[i] : 0;
    out.words_[i] = words_[i] & ~theirs;
  }
  return out;
}

bool Map::subset_of(const Map& other) const noexcept { return count_new(other) == 0; }

void Map::clear() noexcept {
  for (std::uint64_t& w : words_) {
    w = 0;
  }
}

void Map::assign_words(std::size_t num_points,
                       std::span<const std::uint64_t> words) {
  if (words.size() != words_for(num_points)) {
    throw std::invalid_argument(
        "coverage::Map::assign_words: " + std::to_string(words.size()) +
        " words cannot back a universe of " + std::to_string(num_points) +
        " points (expected " + std::to_string(words_for(num_points)) + ")");
  }
  // Enforce the documented invariant that bits at/above the universe are
  // zero — a corrupt serialized map fails loudly instead of silently
  // inflating count() and breaking equality with legitimately built maps.
  if (const std::size_t tail_bits = num_points % kWordBits;
      tail_bits != 0 && !words.empty() &&
      (words.back() >> tail_bits) != 0) {
    throw std::invalid_argument(
        "coverage::Map::assign_words: bits set beyond the " +
        std::to_string(num_points) + "-point universe");
  }
  num_points_ = num_points;
  words_.assign(words.begin(), words.end());
}

void Map::save_state(std::string& out) const {
  common::put_u64(out, words_.size());
  common::put_words(out, std::span<const std::uint64_t>(words_));
}

void Map::restore_state(common::ByteReader& in) {
  const std::uint64_t count = in.u64("coverage map word count");
  if (count != words_.size()) {
    in.fail("coverage map word count " + std::to_string(count) +
            " does not match the " + std::to_string(num_points_) +
            "-point universe's " + std::to_string(words_.size()));
  }
  std::vector<std::uint64_t> words(words_.size());
  in.words("coverage map words", std::span<std::uint64_t>(words));
  try {
    assign_words(num_points_, words);
  } catch (const std::invalid_argument& e) {
    in.fail(std::string("coverage map: ") + e.what());
  }
}

std::size_t Accumulator::absorb(const Map& test_map) {
  const std::size_t fresh = test_map.count_new(global_);
  if (fresh > 0) {
    global_.merge(test_map);
  }
  return fresh;
}

double Accumulator::fraction() const noexcept {
  const std::size_t u = universe();
  return u == 0 ? 0.0 : static_cast<double>(covered()) / static_cast<double>(u);
}

}  // namespace mabfuzz::coverage
