#pragma once
// Flat physical memory with bounds checking. Used by the golden ISS and by
// the substrate cores (behind their cache hierarchy), so both sides of the
// differential comparison observe an identical memory system.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "isa/fields.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::golden {

/// Byte-addressable RAM spanning [base, base + size). All accesses are
/// little-endian. Out-of-range accesses are reported, never clamped —
/// the caller turns them into access faults.
///
/// Addresses are canonicalised to the 32-bit physical bus
/// (isa::kPhysAddrMask) before decoding, on every access.
///
/// Every mutation (store / write_words) marks its 4 KiB page dirty, so the
/// per-test reset() zeroes only the pages a test actually touched instead
/// of memset'ing the whole DRAM — the difference between a full-DRAM clear
/// and a few pages is most of the per-test reset cost in the fuzzing loop.
/// The bytes come zeroed from calloc, so construction touches no page the
/// allocator hands over fresh: a page is first written when a test uses it.
class Memory {
 public:
  /// Dirty-tracking granularity. 4 KiB keeps the page set of a default
  /// 256 KiB DRAM in a single 64-bit word.
  static constexpr std::uint64_t kPageBytes = 4096;

  Memory(std::uint64_t base, std::uint64_t size);

  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  // contains/load/store/fetch are defined inline: both simulators issue
  // one or more of these per executed instruction, so the calls must not
  // cross a translation-unit boundary.

  /// True when [addr, addr + bytes) lies fully inside the RAM.
  [[nodiscard]] bool contains(std::uint64_t addr, unsigned bytes) const noexcept {
    addr &= isa::kPhysAddrMask;
    if (addr < base_) {
      return false;
    }
    const std::uint64_t offset = addr - base_;
    return offset <= size_ && bytes <= size_ - offset;
  }

  /// Little-endian load of 1/2/4/8 bytes; nullopt when out of range.
  [[nodiscard]] std::optional<std::uint64_t> load(std::uint64_t addr,
                                                  unsigned bytes) const noexcept {
    addr &= isa::kPhysAddrMask;
    if (bytes == 0 || bytes > 8 || !contains(addr, bytes)) {
      return std::nullopt;
    }
    const std::uint64_t offset = addr - base_;
    std::uint64_t value = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      value |= static_cast<std::uint64_t>(bytes_[offset + i]) << (8 * i);
    }
    return value;
  }

  /// Little-endian store; false when out of range (nothing written).
  bool store(std::uint64_t addr, std::uint64_t value, unsigned bytes) noexcept {
    addr &= isa::kPhysAddrMask;
    if (bytes == 0 || bytes > 8 || !contains(addr, bytes)) {
      return false;
    }
    const std::uint64_t offset = addr - base_;
    for (unsigned i = 0; i < bytes; ++i) {
      const auto byte = static_cast<std::uint8_t>(value >> (8 * i));
      changes_ += bytes_[offset + i] != byte ? 1 : 0;
      bytes_[offset + i] = byte;
    }
    mark_dirty(offset, offset + bytes - 1);
    return true;
  }

  /// Instruction fetch: reads the little-endian word at `addr` into `word`;
  /// false (with `word` untouched) when out of range. Both simulators fetch
  /// once per commit, so this is one bounds check and one 4-byte read, and
  /// it returns through an out-parameter: GCC builds a returned
  /// std::optional on the stack and reloads it wider than it stored it,
  /// which stalls every call.
  [[nodiscard]] bool fetch(std::uint64_t addr, isa::Word& word) const noexcept {
    if (!contains(addr, 4)) {
      return false;
    }
    const std::uint8_t* bytes = bytes_.get() + ((addr & isa::kPhysAddrMask) - base_);
    word = static_cast<isa::Word>(bytes[0]) | static_cast<isa::Word>(bytes[1]) << 8 |
           static_cast<isa::Word>(bytes[2]) << 16 |
           static_cast<isa::Word>(bytes[3]) << 24;
    return true;
  }

  /// Writes a program image (consecutive words) starting at `addr`;
  /// false when it does not fit.
  bool write_words(std::uint64_t addr, const std::vector<isa::Word>& words) noexcept;

  /// Cache-line transfers: observationally `bytes` one-byte loads (a byte
  /// outside the RAM reads as 0) or one-byte stores (dropped outside the
  /// RAM) at addr, addr + 1, ..., done as one copy when the block fits.
  void read_block(std::uint64_t addr, std::uint8_t* out, unsigned bytes) const noexcept;
  void write_block(std::uint64_t addr, const std::uint8_t* in, unsigned bytes) noexcept;

  /// Zero-fills the RAM unconditionally (and marks everything clean).
  void clear() noexcept;

  /// Zero-fills only the pages written since construction / the last
  /// clear() / reset(). Observationally identical to clear() — every byte
  /// reads 0 afterwards — but touches dirty pages only.
  void reset() noexcept;

  /// Number of pages currently marked dirty (diagnostics / benchmarks).
  [[nodiscard]] std::size_t dirty_pages() const noexcept;

  /// Lifetime count of bytes whose value store() or write_block() changed.
  /// Equal counts at two points of a test mean no DRAM byte changed in
  /// between (the steady-state loop proof, isa/loop_probe.hpp).
  [[nodiscard]] std::uint64_t changes() const noexcept { return changes_; }

 private:
  void mark_dirty(std::uint64_t first_offset, std::uint64_t last_offset) noexcept {
    const std::uint64_t first_page = first_offset / kPageBytes;
    const std::uint64_t last_page = last_offset / kPageBytes;
    for (std::uint64_t page = first_page; page <= last_page; ++page) {
      dirty_[page / 64] |= 1ULL << (page % 64);
    }
  }

  struct FreeBytes {
    void operator()(std::uint8_t* bytes) const noexcept { std::free(bytes); }
  };

  std::uint64_t base_;
  std::uint64_t size_;
  std::unique_ptr<std::uint8_t[], FreeBytes> bytes_;
  std::vector<std::uint64_t> dirty_;  // one bit per kPageBytes page
  std::uint64_t changes_ = 0;
};

}  // namespace mabfuzz::golden
