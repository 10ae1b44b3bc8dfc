#pragma once
// Test representation: an encoded instruction sequence plus provenance
// metadata (which seed it descends from, its mutation generation).

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "isa/fields.hpp"

namespace mabfuzz::fuzz {

struct TestCase {
  std::uint64_t id = 0;         // unique per fuzzing session
  std::uint64_t seed_id = 0;    // root seed this test descends from
  std::uint64_t parent_id = 0;  // 0 for seeds
  unsigned generation = 0;      // 0 for seeds, parent.generation+1 for mutants
  std::vector<isa::Word> words;
  /// Mutation operators applied to derive this test from its parent
  /// (mutation::Op values; empty for seeds). Enables operator-level
  /// credit assignment for adaptive operator policies.
  std::vector<std::uint8_t> mutation_ops;

  [[nodiscard]] bool is_seed() const noexcept { return generation == 0; }

  friend bool operator==(const TestCase&, const TestCase&) = default;
};

/// Multi-line disassembly listing of the test (for reports and examples).
[[nodiscard]] std::string to_listing(const TestCase& test);

/// Appends `test` to a state image (save_state of the pools and
/// policies that hold tests).
void put_test(std::string& out, const TestCase& test);

/// put_test's inverse. The program and operator lists are bounded like
/// a mabfuzz-corpus-v2 entry's (1..2^20 words, at most 2^20 operators);
/// a violation throws std::runtime_error through `in`.
[[nodiscard]] TestCase read_test(common::ByteReader& in);

}  // namespace mabfuzz::fuzz
