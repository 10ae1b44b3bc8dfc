#pragma once
// Pre-decoded program representation: the decode half of the execution-engine
// hot path, shared by the golden ISS and the substrate pipeline so neither
// simulator calls isa::decode per committed instruction.
//
// Because isa::decode is a pure function of the 32-bit word, the cache is
// keyed by instruction *value*, not by address: a slot holding (word, result)
// is correct forever, independent of self-modifying stores, trap-handler
// detours or which test populated it. build() pre-decodes every word of the
// current program image; any other fetched word (handler code, D$ snoops,
// wild jumps into scratch memory) falls into the same direct-mapped
// table on first lookup. Collisions only cost a re-decode — never wrongness —
// so the table needs no invalidation between tests and has zero effect on
// architectural results (locked in by the equivalence suite in
// tests/test_differential.cpp).

#include <cstdint>
#include <vector>

#include "isa/decoder.hpp"

namespace mabfuzz::isa {

class DecodedProgram {
 public:
  /// Default slot count: comfortably above the default program length plus
  /// the handler stub, so a whole test image pre-decodes collision-free.
  static constexpr std::size_t kDefaultSlots = 4096;

  /// `slots` is rounded up to a power of two. The trap-handler stub and the
  /// end-of-test sentinel are pre-decoded at construction — they are part of
  /// every test image.
  explicit DecodedProgram(std::size_t slots = kDefaultSlots);

  /// Pre-decodes every word of `program` (one test's image). Stale entries
  /// from earlier tests stay valid — value-keyed slots never go wrong — so
  /// this only warms the table; it never clears it.
  void build(const std::vector<Word>& program);

  /// Cached decode of one fetched word. A slot miss decodes and fills.
  [[nodiscard]] const DecodeResult& lookup(Word word) noexcept {
    ++lookups_;
    Slot& slot = slots_[index_of(word)];
    if (slot.word != word) {
      ++misses_;
      slot.word = word;
      slot.result = decode(word);
    }
    return slot.result;
  }

  /// Lifetime lookup/decode-miss counters (diagnostics and benchmarks only;
  /// they never influence execution).
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  struct Slot {
    Word word = 0;
    DecodeResult result;  // every slot starts as the valid decode of word 0
  };

  [[nodiscard]] std::size_t index_of(Word word) const noexcept {
    // Fibonacci hashing: multiply spreads low-entropy opcode bits across the
    // top, shift keeps the strongest bits for the slot index.
    return static_cast<std::size_t>(
        (static_cast<std::uint32_t>(word) * 2654435769u) >> shift_);
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 0;  // 32 - log2(slot count)
  std::uint64_t lookups_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mabfuzz::isa
