#pragma once
// Cross-campaign corpus: the persistent, coverage-novelty-gated test store
// that lets a campaign seed the next one (ReFuzz-style test reuse). Unlike
// fuzz::TestPool — a transient FIFO working queue that forgets everything
// at campaign end — the corpus only *admits* a test when its coverage map
// adds points over the corpus's accumulated map, and when full it evicts
// the entry with the lowest novelty score (the points it contributed at
// admission), never by age.
//
// The store serializes deterministically as the mabfuzz-corpus-v2 artifact
// (docs/ARTIFACTS.md): a little-endian binary file carrying the tests,
// their full coverage maps, the admission scores and the accumulated
// coverage map, plus a JSON manifest sidecar (`<path>.json`, emitted
// through common/json) for external tooling and CI validators. Equal
// corpora serialize byte-identically, so a save → load → save round trip
// reproduces the file exactly.
//
// Federation: merge() folds another store into this one by re-offering the
// union of both entry sets in a canonical content-based order, so the
// result is independent of which shard arrived first; distill() shrinks
// the store to a greedy set-cover of its entries' combined coverage.
// Both exist so sharded matrix runs (harness::Experiment) and the
// `mabfuzz_cli corpus` verbs can build one corpus from many writers.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/map.hpp"
#include "fuzz/test_case.hpp"

namespace mabfuzz::fuzz {

/// One admitted test with its admission-time score and sequence number.
struct CorpusEntry {
  TestCase test;
  /// The test's full coverage map as executed — what merge() re-gates with
  /// and distill() set-covers over. Same universe as the owning corpus.
  coverage::Map map;
  /// Coverage points this test added over the accumulated map when it was
  /// admitted — the eviction score (lower = evicted first).
  std::uint64_t novelty = 0;
  /// Admission sequence number; the deterministic eviction tie-break
  /// (equal novelty evicts the older entry) and the arm-assignment order
  /// of the reuse fuzzer.
  std::uint64_t order = 0;

  friend bool operator==(const CorpusEntry&, const CorpusEntry&) = default;
};

class Corpus {
 public:
  static constexpr std::string_view kSchema = "mabfuzz-corpus-v2";
  static constexpr std::uint32_t kVersion = 2;
  /// Bound on a binary image, read from a store file or embedded in
  /// another one (checkpoints and the reuse fuzzer's state): 64 MiB. A
  /// store admits a test only for a fresh point, so it holds at most one
  /// entry per universe point: about 40 MB on boom, the largest core.
  static constexpr std::uint64_t kMaxImageBytes = 1u << 26;

  /// An empty corpus bound to one DUT configuration: `core` is the
  /// soc::core_name the tests were executed on and `coverage_universe` the
  /// size of that core's coverage point space — both are validated when a
  /// saved corpus is loaded into a campaign. `max_entries` is clamped to
  /// at least 1.
  Corpus(std::string core, std::size_t coverage_universe,
         std::size_t max_entries = 256);

  /// Offers one executed test. Admitted (and copied in, along with its
  /// coverage map) only when `test_coverage` sets at least one point the
  /// accumulated map does not; an admission into a full corpus first
  /// evicts the lowest-novelty entry (ties evict the oldest). Returns
  /// whether the test was admitted.
  bool offer(const TestCase& test, const coverage::Map& test_coverage);

  /// Folds `other` into this store deterministically: the union of both
  /// entry sets is re-offered into a fresh store in canonical order —
  /// novelty descending, then admission order, then full test content,
  /// then source rank (this before other, reachable only for identical
  /// entries, which the admission gate dedups anyway) — so merge(A,B) and
  /// merge(B,A) produce byte-identical stores no matter which shard
  /// finished first. The accumulated map becomes the union of both inputs'
  /// maps (the ratchet keeps evicted entries' contributions); the entry
  /// cap becomes the larger of the two. Throws std::invalid_argument on a
  /// core or universe mismatch, exactly like load-time validation.
  void merge(const Corpus& other);

  /// Greedy set-cover distillation: keeps the minimal (greedy) subset of
  /// entries whose combined coverage equals the combined coverage of all
  /// current entries, preferring high-gain then older entries, and drops
  /// the rest (counted as evictions). The accumulated map is untouched —
  /// distillation shrinks the store, never the admission ratchet. Returns
  /// the number of entries removed.
  std::size_t distill();

  [[nodiscard]] const std::vector<CorpusEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t max_entries() const noexcept { return max_entries_; }
  [[nodiscard]] const std::string& core() const noexcept { return core_; }
  [[nodiscard]] std::size_t universe() const noexcept {
    return accumulated_.universe();
  }

  /// Union of every admitted test's coverage, ever — a ratchet: eviction
  /// removes the test, not its contribution to the admission gate.
  [[nodiscard]] const coverage::Map& accumulated() const noexcept {
    return accumulated_;
  }
  [[nodiscard]] std::size_t covered() const noexcept {
    return accumulated_.count();
  }

  // --- lifetime accounting (persisted across save/load) ---
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }

  // --- serialization (mabfuzz-corpus-v2; format in docs/ARTIFACTS.md) ---

  /// The deterministic little-endian binary image.
  [[nodiscard]] std::string image() const;

  /// Writes image() to `os`.
  void save(std::ostream& os) const;

  /// Writes the binary image to `path`, then the JSON manifest to
  /// `<path>.json`, each as tmp + rename (common::write_file_atomic), so
  /// an interrupted save leaves the previous store loadable. Throws
  /// std::runtime_error (with the OS reason appended) when either file
  /// cannot be written.
  void save(const std::string& path) const;

  /// The JSON manifest (schema, provenance, per-entry metadata — no test
  /// words; the binary is the single source of truth for reloading).
  void write_manifest(std::ostream& os) const;

  /// Decodes an image(). Throws std::runtime_error("corpus load: ...") on
  /// a bad magic, unsupported version, truncation, a field beyond its
  /// bound, a structurally invalid payload or bytes after the
  /// accumulated map.
  [[nodiscard]] static Corpus from_image(std::string_view image);
  /// from_image() of the file at `path`, which may hold at most
  /// kMaxImageBytes.
  [[nodiscard]] static Corpus load(const std::string& path);

  friend bool operator==(const Corpus& a, const Corpus& b) noexcept {
    return a.core_ == b.core_ && a.max_entries_ == b.max_entries_ &&
           a.entries_ == b.entries_ && a.accumulated_ == b.accumulated_ &&
           a.admitted_ == b.admitted_ && a.rejected_ == b.rejected_ &&
           a.evicted_ == b.evicted_ && a.next_order_ == b.next_order_;
  }

 private:
  std::string core_;
  std::size_t max_entries_;
  std::vector<CorpusEntry> entries_;
  coverage::Map accumulated_;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t next_order_ = 0;
};

}  // namespace mabfuzz::fuzz
