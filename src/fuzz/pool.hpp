#pragma once
// FIFO test pool: the transient *working queue* of a running campaign.
// TheHuzz drains one global pool front-to-back; each MABFuzz arm owns a
// private pool holding its seed's mutation lineage (core/arm.hpp); the
// repro minimizer stages candidates through one. A size cap bounds memory
// during long campaigns — oldest tests are dropped first and counted in
// dropped(), a lifetime statistic that pop()/clear() never reset.
//
// Pools forget everything at campaign end. Cross-campaign persistence is
// the job of fuzz::Corpus (fuzz/corpus.hpp), which gates admission on
// coverage novelty and evicts by lowest novelty score instead of age —
// see docs/ARCHITECTURE.md ("TestPool vs Corpus") for the split.

#include <cstddef>
#include <deque>
#include <optional>
#include <string>

#include "common/bytes.hpp"

#include "fuzz/test_case.hpp"

namespace mabfuzz::fuzz {

class TestPool {
 public:
  explicit TestPool(std::size_t max_size = 4096) : max_size_(max_size) {}

  /// Appends a test; when full, the oldest queued test is dropped.
  void push(TestCase test);

  /// Pops the oldest test (FIFO); nullopt when empty.
  [[nodiscard]] std::optional<TestCase> pop();

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }

  /// Total tests ever dropped by the cap (for stats/tests).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  void clear() noexcept { queue_.clear(); }

  /// The queued tests (oldest first) and the dropped count. The cap is
  /// configuration: restore_state() refuses more queued tests than the
  /// pool can hold.
  void save_state(std::string& out) const;
  void restore_state(common::ByteReader& in);

 private:
  std::size_t max_size_;
  std::deque<TestCase> queue_;
  std::uint64_t dropped_ = 0;
};

}  // namespace mabfuzz::fuzz
