#pragma once
// Architectural commit trace: the common output format of the golden ISS
// and the substrate cores. The differential-testing oracle compares two of
// these traces record-by-record — exactly the comparison TheHuzz performs
// between the DUT simulation and SPIKE — by isa::differs below.

#include <array>
#include <cstdint>
#include <vector>

#include "isa/fields.hpp"

namespace mabfuzz::isa {

/// One retired (or trapped) instruction's architectural effect.
///
/// Fields are ordered by size, not by meaning: grouped by meaning the
/// record pads out to 72 bytes, ordered by size it packs into 56. Both
/// simulators build one per commit and the oracle compares them pairwise,
/// so every byte is written twice and read once per commit.
struct CommitRecord {
  std::uint64_t pc = 0;
  std::uint64_t cause = 0;      // valid when trapped
  std::uint64_t rd_value = 0;   // valid when wrote_rd
  std::uint64_t mem_addr = 0;   // valid when wrote_mem
  std::uint64_t mem_value = 0;  // truncated to mem_bytes
  Word word = 0;  // fetched instruction bits; 0 for fetch-stage traps
  unsigned mem_bytes = 0;
  bool trapped = false;
  bool wrote_rd = false;
  RegIndex rd = 0;
  bool wrote_mem = false;

  friend bool operator==(const CommitRecord&, const CommitRecord&) = default;
};
static_assert(sizeof(CommitRecord) == 56, "keep CommitRecord's fields ordered by size");

/// True when `a` and `b` differ in a field the differential oracle
/// compares: pc, word, whether it trapped, and the cause, rd write and
/// memory write where the records mark them valid. A field marked invalid
/// (a cause without a trap, an rd_value without wrote_rd, ...) is ignored.
/// fuzz::compare and the golden model's lockstep check both decide a
/// divergence by this one predicate.
[[nodiscard]] constexpr bool differs(const CommitRecord& a,
                                     const CommitRecord& b) noexcept {
  if (a.pc != b.pc || a.word != b.word || a.trapped != b.trapped ||
      a.wrote_rd != b.wrote_rd || a.wrote_mem != b.wrote_mem) {
    return true;
  }
  if (a.trapped && a.cause != b.cause) {
    return true;
  }
  if (a.wrote_rd && (a.rd != b.rd || a.rd_value != b.rd_value)) {
    return true;
  }
  return a.wrote_mem && (a.mem_addr != b.mem_addr || a.mem_value != b.mem_value ||
                         a.mem_bytes != b.mem_bytes);
}

/// Why a run ended.
enum class HaltReason : std::uint8_t {
  kSentinel,        // reached the end-of-test sentinel (normal)
  kBudget,          // instruction budget exhausted (runaway loop)
  kFetchOutOfRange, // control flow left DRAM
};

/// Full architectural outcome of executing one test program.
struct ArchResult {
  std::vector<CommitRecord> commits;
  std::array<std::uint64_t, kNumRegs> regs{};
  std::uint64_t instret = 0;
  HaltReason halt = HaltReason::kSentinel;

  // Final trap/handler CSR state (compared by the oracle's end-state check).
  std::uint64_t mstatus = 0;
  std::uint64_t mepc = 0;
  std::uint64_t mcause = 0;
  std::uint64_t mtval = 0;
  std::uint64_t mtvec = 0;
  std::uint64_t mscratch = 0;

  friend bool operator==(const ArchResult&, const ArchResult&) = default;
};

}  // namespace mabfuzz::isa
