#pragma once
// Set-associative cache models for the substrate cores.
//
//  - InstructionCache: presence-only (tag/LRU state); instruction bytes are
//    always served coherently from the data cache or DRAM, so self-modifying
//    code behaves identically to the golden model. FENCE.I invalidates it.
//  - DataCache: a true write-back, write-allocate cache with line storage.
//    Dirty lines live in the cache until eviction; evictions write the line
//    back to DRAM through a single-entry writeback buffer. Bug V4 drops a
//    writeback when the buffer is busy, leaving DRAM stale. Instruction
//    fetch snoops it: any line it holds, clean or dirty, serves the fetch.
//
// Per-fetch shortcuts (both bit-exact; docs/ARCHITECTURE.md, "Per-commit
// hot path"):
//  - The I$ remembers the line of its last access. Every access leaves its
//    line valid (a hit finds it, a miss fills it) and nothing but another
//    access, invalidate_all() or reset() changes the I$, so a fetch from
//    the same line is a hit without probing the ways. That line is already
//    the most recently used of its set, so the hit changes no LRU order
//    and stamps nothing. Sequential code stays in one 32-byte line for
//    eight fetches.
//  - The D$ keeps a presence filter: one bit per DRAM line, set on fill,
//    cleared when that line is evicted or the cache reset. A bit is set
//    exactly while some way holds a valid copy of the line, so the snoop
//    probes the ways only for lines the filter holds. Almost no fetch
//    finds its line in the D$.
//
// Coverage: each set registers hit/miss/eviction points; each (set, way)
// registers a fill point — the replicated-structure mass that dominates
// RTL branch coverage.
//
// Hot-path geometry: sets and line_bytes must be powers of two (enforced
// at construction), so set/tag/offset extraction is shift/mask — no
// integer division on the per-instruction fetch and LSU paths. Resets are
// O(lines touched since the last reset), not O(sets x ways): a line that
// was never filled is bit-equivalent to a freshly reset one in every
// observable way (valid gates all reads; a fill overwrites the whole
// entry), so cold lines are skipped.
//
// Layout: structure-of-arrays. The tag probe that runs on every fetch
// (I$ access + D$ snoop) and every LSU access walks the ways of one set;
// with per-line structs each probe strides over tag+lru+flag padding,
// while the split valid_/tags_/lru_/dirty_ arrays keep the compared tags
// adjacent and the flag bytes dense. All four arrays are indexed by line
// index = set * ways + way; a frame's fields are only meaningful while
// valid_[index] is set (every reader checks valid first, so
// reset/invalidate may leave tag/lru/dirty stale).

#include <cstdint>
#include <vector>

#include "coverage/context.hpp"
#include "golden/memory.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::soc {

struct CacheParams {
  unsigned sets = 64;        // power of two
  unsigned ways = 4;
  unsigned line_bytes = 32;  // power of two, >= 8
};

/// A valid line in a steady-state snapshot (isa/loop_probe.hpp): its frame,
/// tag and rank among its set's valid lines by LRU stamp. Only that order
/// is observable (it picks victims); the stamps themselves are not.
struct CachedLine {
  std::uint32_t index = 0;
  std::uint32_t lru_rank = 0;
  std::uint64_t tag = 0;
};

/// Presence-only I-cache (timing + coverage).
class InstructionCache {
 public:
  InstructionCache(const CacheParams& params, coverage::Context& ctx);

  void reset() noexcept;

  /// Looks up `addr`, allocating on miss. Returns true on hit.
  bool access(std::uint64_t addr, coverage::Context& ctx) {
    if ((addr >> line_shift_) == last_line_) {
      // Same line as the last access: still valid, and already the most
      // recently used line of its set, so only the hit is recorded.
      ctx.hit(cov_hit_, last_set_);
      return true;
    }
    return probe(addr, ctx);
  }

  /// FENCE.I: invalidate everything.
  void invalidate_all(coverage::Context& ctx) noexcept;

  [[nodiscard]] const CacheParams& params() const noexcept { return params_; }

  /// Lifetime count of accesses that missed. The trap-sled replay reads a
  /// stepped word's misses from it; it never influences execution.
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  // Steady-state loop support: the valid lines and the last-line shortcut.
  struct Snapshot {
    std::vector<CachedLine> lines;
    std::uint64_t last_line = 0;
  };
  void capture(Snapshot& out) const;
  [[nodiscard]] bool matches(const Snapshot& snapshot) const noexcept;

 private:
  // Line numbers stay below 2^61 with line_bytes >= 8, so none equals it.
  static constexpr std::uint64_t kNoLine = ~0ULL;

  /// access() past the last-line shortcut: walks the set's ways, fills
  /// on a miss, and remembers the line.
  bool probe(std::uint64_t addr, coverage::Context& ctx);

  CacheParams params_;
  unsigned line_shift_ = 0;   // log2(line_bytes)
  unsigned set_shift_ = 0;    // log2(sets)
  std::uint64_t set_mask_ = 0;
  // SoA line state, indexed by set * ways + way (see header comment).
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> lru_;
  std::vector<std::uint32_t> touched_;  // line indices filled since reset
  std::uint32_t lru_clock_ = 0;

  // The last accessed line: its number (addr >> line_shift_, kNoLine after
  // reset or invalidation) and set.
  std::uint64_t last_line_ = kNoLine;
  unsigned last_set_ = 0;
  std::uint64_t misses_ = 0;

  coverage::PointId cov_hit_ = 0;        // per set
  coverage::PointId cov_miss_ = 0;       // per set
  coverage::PointId cov_evict_ = 0;      // per set
  coverage::PointId cov_fill_ = 0;       // per set*way
  coverage::PointId cov_flush_ = 0;      // single
};

/// Write-back, write-allocate D-cache with real line storage.
class DataCache {
 public:
  /// `dram_size` sizes the presence filter over [kDramBase, kDramBase +
  /// dram_size). Lines outside it stay correct: their snoops probe the ways.
  DataCache(const CacheParams& params, coverage::Context& ctx,
            std::uint64_t dram_size);

  void reset() noexcept;

  struct AccessOutcome {
    bool ok = false;            // false => the physical address is unmapped
    bool hit = false;
    bool dirty_eviction = false;
    bool writeback_dropped = false;  // V4 fired on this access
    std::uint64_t value = 0;         // loads only
  };

  /// Aligned load of `bytes` (1/2/4/8). Fills on miss.
  AccessOutcome load(std::uint64_t addr, unsigned bytes, golden::Memory& memory,
                     coverage::Context& ctx, bool drop_writeback_when_busy);

  /// Aligned store (write-allocate). The line is marked dirty; DRAM is not
  /// updated until eviction or flush.
  AccessOutcome store(std::uint64_t addr, std::uint64_t value, unsigned bytes,
                      golden::Memory& memory, coverage::Context& ctx,
                      bool drop_writeback_when_busy);

  /// Coherent read for instruction fetch: true, with the bytes in `value`,
  /// when a valid line holds [addr, addr + bytes), clean or dirty; false to
  /// fall through to DRAM. Only lines in the presence filter are probed.
  [[nodiscard]] bool snoop(std::uint64_t addr, unsigned bytes,
                           std::uint64_t& value) const noexcept {
    addr &= isa::kPhysAddrMask;
    const std::uint64_t slot = (addr >> line_shift_) - first_line_;
    if (slot < filter_lines_ && ((present_[slot / 64] >> (slot % 64)) & 1) == 0) {
      return false;
    }
    return snoop_ways(addr, bytes, value);
  }

  /// FENCE / end-of-test: write back all dirty lines (never dropped).
  void flush_all(golden::Memory& memory, coverage::Context& ctx);

  [[nodiscard]] const CacheParams& params() const noexcept { return params_; }

  // Steady-state loop support: the valid lines with their dirty bits and
  // bytes, and the writeback-buffer countdown. The presence filter follows
  // from the valid lines' tags.
  struct Snapshot {
    std::vector<CachedLine> lines;
    std::vector<std::uint8_t> dirty;  // per line
    std::vector<std::uint8_t> data;   // line_bytes per line
    unsigned wb_buffer_busy = 0;
  };
  void capture(Snapshot& out) const;
  [[nodiscard]] bool matches(const Snapshot& snapshot) const noexcept;

 private:
  static constexpr std::size_t kNoLine = static_cast<std::size_t>(-1);

  [[nodiscard]] unsigned set_index(std::uint64_t addr) const noexcept;
  [[nodiscard]] std::uint64_t line_addr(std::uint64_t addr) const noexcept;
  [[nodiscard]] std::size_t find_index(std::uint64_t addr) const noexcept;

  /// snoop() for a physical address the filter may hold: probes the ways.
  [[nodiscard]] bool snoop_ways(std::uint64_t addr, unsigned bytes,
                                std::uint64_t& value) const noexcept;

  /// Sets or clears the presence bit of the line held at `line_index`.
  void mark_present(std::size_t line_index, bool present) noexcept;

  [[nodiscard]] std::uint8_t* line_data(std::size_t line_index) noexcept {
    return data_.data() + line_index * params_.line_bytes;
  }
  [[nodiscard]] const std::uint8_t* line_data(std::size_t line_index) const noexcept {
    return data_.data() + line_index * params_.line_bytes;
  }

  /// Selects a victim way in `set`, writing back its line if dirty.
  /// Returns the line index; sets flags on the outcome.
  std::size_t evict_and_fill(std::uint64_t addr, golden::Memory& memory,
                             coverage::Context& ctx, bool drop_writeback_when_busy,
                             AccessOutcome& outcome);

  void write_line_back(std::size_t line_index, unsigned set,
                       golden::Memory& memory, coverage::Context& ctx,
                       bool allow_drop, AccessOutcome& outcome);

  CacheParams params_;
  unsigned line_shift_ = 0;
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t offset_mask_ = 0;
  // SoA line state, indexed by set * ways + way; line bytes live in the
  // flat `data_` slab (one contiguous allocation for the whole cache).
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> lru_;
  std::vector<std::uint8_t> data_;  // sets * ways * line_bytes
  std::vector<std::uint32_t> touched_;  // line indices filled since reset
  std::uint32_t lru_clock_ = 0;
  unsigned wb_buffer_busy_ = 0;  // accesses until the writeback buffer drains

  // Presence filter: bit (addr >> line_shift_) - first_line_ is set while a
  // valid line holds that address; it covers filter_lines_ DRAM lines.
  std::vector<std::uint64_t> present_;
  std::uint64_t first_line_ = 0;
  std::uint64_t filter_lines_ = 0;

  coverage::PointId cov_read_hit_ = 0;    // per set
  coverage::PointId cov_read_miss_ = 0;   // per set
  coverage::PointId cov_write_hit_ = 0;   // per set
  coverage::PointId cov_write_miss_ = 0;  // per set
  coverage::PointId cov_dirty_evict_ = 0; // per set
  coverage::PointId cov_fill_ = 0;        // per set*way
  coverage::PointId cov_flush_dirty_ = 0; // single
  coverage::PointId cov_wb_busy_ = 0;     // single: eviction hit a busy buffer
};

}  // namespace mabfuzz::soc
