#include "soc/cache.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "isa/platform.hpp"

namespace mabfuzz::soc {

namespace {
constexpr std::uint32_t kLruMax = 0xffffffffu;

unsigned log2_or_throw(unsigned value, const char* what) {
  if (value == 0 || !std::has_single_bit(value)) {
    throw std::invalid_argument(std::string("CacheParams::") + what + " = " +
                                std::to_string(value) +
                                " must be a power of two");
  }
  return static_cast<unsigned>(std::countr_zero(value));
}

// Steady-state snapshots of either cache. Both keep the invariant that the
// touched list holds exactly the valid frames (a fill of an invalid frame
// adds it; reset and invalidate_all clear valid bits and list together), so
// it enumerates the valid lines, and equal list sizes with every captured
// line still valid mean no other line became valid.

std::uint32_t lru_rank(const std::vector<std::uint8_t>& valid,
                       const std::vector<std::uint32_t>& lru, std::size_t index,
                       unsigned ways) noexcept {
  const std::size_t base = index - index % ways;
  std::uint32_t rank = 0;
  for (unsigned w = 0; w < ways; ++w) {
    rank += valid[base + w] != 0 && lru[base + w] < lru[index] ? 1 : 0;
  }
  return rank;
}

void capture_lines(const std::vector<std::uint32_t>& touched,
                   const std::vector<std::uint8_t>& valid,
                   const std::vector<std::uint64_t>& tags,
                   const std::vector<std::uint32_t>& lru, unsigned ways,
                   std::vector<CachedLine>& out) {
  out.clear();
  for (const std::uint32_t index : touched) {
    out.push_back(CachedLine{index, lru_rank(valid, lru, index, ways), tags[index]});
  }
}

bool lines_match(const std::vector<CachedLine>& lines,
                 const std::vector<std::uint32_t>& touched,
                 const std::vector<std::uint8_t>& valid,
                 const std::vector<std::uint64_t>& tags,
                 const std::vector<std::uint32_t>& lru, unsigned ways) noexcept {
  if (touched.size() != lines.size()) {
    return false;
  }
  for (const CachedLine& line : lines) {
    if (valid[line.index] == 0 || tags[line.index] != line.tag ||
        lru_rank(valid, lru, line.index, ways) != line.lru_rank) {
      return false;
    }
  }
  return true;
}
}  // namespace

// --- InstructionCache -------------------------------------------------------

InstructionCache::InstructionCache(const CacheParams& params, coverage::Context& ctx)
    : params_(params),
      line_shift_(log2_or_throw(params.line_bytes, "line_bytes")),
      set_shift_(log2_or_throw(params.sets, "sets")),
      set_mask_(params.sets - 1),
      valid_(static_cast<std::size_t>(params.sets) * params.ways, 0),
      tags_(valid_.size(), 0),
      lru_(valid_.size(), 0) {
  touched_.reserve(valid_.size());
  auto& reg = ctx.registry();
  cov_hit_ = reg.add_array("icache/hit_set", params_.sets);
  cov_miss_ = reg.add_array("icache/miss_set", params_.sets);
  cov_evict_ = reg.add_array("icache/evict_set", params_.sets);
  cov_fill_ = reg.add_array("icache/fill_way", params_.sets * params_.ways);
  cov_flush_ = reg.add("icache/fencei_flush");
}

void InstructionCache::reset() noexcept {
  // Only lines filled since the last reset can differ from a cold frame in
  // any observable way, and every reader checks valid_ before tag/lru, so
  // clearing valid_ alone is equivalent to zeroing the whole frame.
  for (const std::uint32_t index : touched_) {
    valid_[index] = 0;
  }
  touched_.clear();
  lru_clock_ = 0;
  last_line_ = kNoLine;
}

bool InstructionCache::probe(std::uint64_t addr, coverage::Context& ctx) {
  const std::uint64_t line_no = addr >> line_shift_;
  const unsigned set = static_cast<unsigned>(line_no & set_mask_);
  const std::uint64_t tag = line_no >> set_shift_;
  const std::size_t base = static_cast<std::size_t>(set) * params_.ways;

  ++lru_clock_;
  last_line_ = line_no;
  last_set_ = set;
  for (unsigned w = 0; w < params_.ways; ++w) {
    if (valid_[base + w] && tags_[base + w] == tag) {
      lru_[base + w] = lru_clock_;
      ctx.hit(cov_hit_, set);
      return true;
    }
  }
  ctx.hit(cov_miss_, set);
  ++misses_;

  // Choose the LRU victim.
  unsigned victim = 0;
  std::uint32_t oldest = kLruMax;
  for (unsigned w = 0; w < params_.ways; ++w) {
    if (!valid_[base + w]) {
      victim = w;
      oldest = 0;
      break;
    }
    if (lru_[base + w] < oldest) {
      oldest = lru_[base + w];
      victim = w;
    }
  }
  const std::size_t line_index = base + victim;
  if (valid_[line_index]) {
    ctx.hit(cov_evict_, set);
  } else {
    touched_.push_back(static_cast<std::uint32_t>(line_index));
  }
  valid_[line_index] = 1;
  tags_[line_index] = tag;
  lru_[line_index] = lru_clock_;
  ctx.hit(cov_fill_, line_index);
  return false;
}

void InstructionCache::invalidate_all(coverage::Context& ctx) noexcept {
  // An invalid line's tag/lru are unobservable, so clearing only the valid
  // bits of touched lines is equivalent to a full sweep. The touched list
  // empties: a later fill of the same frame re-registers it.
  for (const std::uint32_t index : touched_) {
    valid_[index] = 0;
  }
  touched_.clear();
  last_line_ = kNoLine;
  ctx.hit(cov_flush_);
}

void InstructionCache::capture(Snapshot& out) const {
  capture_lines(touched_, valid_, tags_, lru_, params_.ways, out.lines);
  out.last_line = last_line_;
}

bool InstructionCache::matches(const Snapshot& snapshot) const noexcept {
  return last_line_ == snapshot.last_line &&
         lines_match(snapshot.lines, touched_, valid_, tags_, lru_, params_.ways);
}

// --- DataCache --------------------------------------------------------------

DataCache::DataCache(const CacheParams& params, coverage::Context& ctx,
                     std::uint64_t dram_size)
    : params_(params),
      line_shift_(log2_or_throw(params.line_bytes, "line_bytes")),
      set_shift_(log2_or_throw(params.sets, "sets")),
      set_mask_(params.sets - 1),
      offset_mask_(params.line_bytes - 1),
      valid_(static_cast<std::size_t>(params.sets) * params.ways, 0),
      dirty_(valid_.size(), 0),
      tags_(valid_.size(), 0),
      lru_(valid_.size(), 0),
      data_(static_cast<std::size_t>(params.sets) * params.ways * params.line_bytes,
            0),
      first_line_(isa::kDramBase >> line_shift_),
      filter_lines_((dram_size + params.line_bytes - 1) >> line_shift_) {
  present_.assign(static_cast<std::size_t>((filter_lines_ + 63) / 64), 0);
  touched_.reserve(valid_.size());
  auto& reg = ctx.registry();
  cov_read_hit_ = reg.add_array("dcache/read_hit_set", params_.sets);
  cov_read_miss_ = reg.add_array("dcache/read_miss_set", params_.sets);
  cov_write_hit_ = reg.add_array("dcache/write_hit_set", params_.sets);
  cov_write_miss_ = reg.add_array("dcache/write_miss_set", params_.sets);
  cov_dirty_evict_ = reg.add_array("dcache/dirty_evict_set", params_.sets);
  cov_fill_ = reg.add_array("dcache/fill_way", params_.sets * params_.ways);
  cov_flush_dirty_ = reg.add("dcache/flush_dirty_line");
  cov_wb_busy_ = reg.add("dcache/writeback_buffer_busy");
}

void DataCache::reset() noexcept {
  // Invalid lines are unobservable (valid gates find/snoop; a fill
  // overwrites the whole line's data and flags before any byte is read),
  // so only lines filled since the last reset need their valid bit
  // cleared. Every valid line is among them, so this also empties the
  // presence filter.
  for (const std::uint32_t index : touched_) {
    if (valid_[index]) {
      mark_present(index, false);
    }
    valid_[index] = 0;
  }
  touched_.clear();
  lru_clock_ = 0;
  wb_buffer_busy_ = 0;
}

void DataCache::mark_present(std::size_t line_index, bool present) noexcept {
  const unsigned set = static_cast<unsigned>((line_index / params_.ways) & set_mask_);
  const std::uint64_t slot = ((tags_[line_index] << set_shift_) + set) - first_line_;
  if (slot >= filter_lines_) {
    return;  // outside the filter: snoops of this line probe the ways
  }
  const std::uint64_t bit = 1ULL << (slot % 64);
  if (present) {
    present_[slot / 64] |= bit;
  } else {
    present_[slot / 64] &= ~bit;
  }
}

unsigned DataCache::set_index(std::uint64_t addr) const noexcept {
  return static_cast<unsigned>((addr >> line_shift_) & set_mask_);
}

std::uint64_t DataCache::line_addr(std::uint64_t addr) const noexcept {
  return addr & ~offset_mask_;
}

std::size_t DataCache::find_index(std::uint64_t addr) const noexcept {
  const std::uint64_t line_no = addr >> line_shift_;
  const unsigned set = static_cast<unsigned>(line_no & set_mask_);
  const std::uint64_t tag = line_no >> set_shift_;
  const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
  for (unsigned w = 0; w < params_.ways; ++w) {
    if (valid_[base + w] && tags_[base + w] == tag) {
      return base + w;
    }
  }
  return kNoLine;
}

void DataCache::write_line_back(std::size_t line_index, unsigned set,
                                golden::Memory& memory, coverage::Context& ctx,
                                bool allow_drop, AccessOutcome& outcome) {
  const std::uint64_t addr =
      ((tags_[line_index] << set_shift_) + set) << line_shift_;
  outcome.dirty_eviction = true;
  ctx.hit(cov_dirty_evict_, set);
  if (wb_buffer_busy_ > 0) {
    ctx.hit(cov_wb_busy_);
  }

  // Bug V4: the writeback path's bank decoder mishandles addresses whose
  // bits [7:6] are both set, aliasing the line into a non-existent bank;
  // such writebacks are silently dropped and DRAM keeps the stale data —
  // an undetected coherency violation between the L1 and DRAM.
  if (allow_drop && (addr & 0xC0) == 0xC0) {
    outcome.writeback_dropped = true;
    wb_buffer_busy_ = 3;
    return;
  }
  memory.write_block(addr, line_data(line_index), params_.line_bytes);
  wb_buffer_busy_ = 3;
}

std::size_t DataCache::evict_and_fill(std::uint64_t addr, golden::Memory& memory,
                                      coverage::Context& ctx,
                                      bool drop_writeback_when_busy,
                                      AccessOutcome& outcome) {
  const std::uint64_t line_no = addr >> line_shift_;
  const unsigned set = static_cast<unsigned>(line_no & set_mask_);
  const std::uint64_t tag = line_no >> set_shift_;
  const std::size_t base = static_cast<std::size_t>(set) * params_.ways;

  unsigned victim = 0;
  std::uint32_t oldest = kLruMax;
  for (unsigned w = 0; w < params_.ways; ++w) {
    if (!valid_[base + w]) {
      victim = w;
      oldest = 0;
      break;
    }
    if (lru_[base + w] < oldest) {
      oldest = lru_[base + w];
      victim = w;
    }
  }
  const std::size_t line_index = base + victim;
  if (valid_[line_index] && dirty_[line_index]) {
    write_line_back(line_index, set, memory, ctx, drop_writeback_when_busy,
                    outcome);
  }
  if (valid_[line_index]) {
    mark_present(line_index, false);  // the victim's line leaves the cache
  } else {
    touched_.push_back(static_cast<std::uint32_t>(line_index));
  }

  // Fill from DRAM.
  memory.read_block(line_addr(addr), line_data(line_index), params_.line_bytes);
  valid_[line_index] = 1;
  dirty_[line_index] = 0;
  tags_[line_index] = tag;
  lru_[line_index] = lru_clock_;
  mark_present(line_index, true);
  ctx.hit(cov_fill_, line_index);
  return line_index;
}

DataCache::AccessOutcome DataCache::load(std::uint64_t addr, unsigned bytes,
                                         golden::Memory& memory,
                                         coverage::Context& ctx,
                                         bool drop_writeback_when_busy) {
  addr &= isa::kPhysAddrMask;  // canonical 32-bit physical bus address
  AccessOutcome outcome;
  if (!memory.contains(addr, bytes)) {
    return outcome;  // unmapped: the LSU raises (or V5-suppresses) the fault
  }
  outcome.ok = true;
  const unsigned set = set_index(addr);
  ++lru_clock_;
  if (wb_buffer_busy_ > 0) {
    --wb_buffer_busy_;
  }

  std::size_t line_index = find_index(addr);
  if (line_index != kNoLine) {
    outcome.hit = true;
    lru_[line_index] = lru_clock_;
    ctx.hit(cov_read_hit_, set);
  } else {
    ctx.hit(cov_read_miss_, set);
    line_index = evict_and_fill(addr, memory, ctx, drop_writeback_when_busy,
                                outcome);
  }

  const unsigned offset = static_cast<unsigned>(addr & offset_mask_);
  const std::uint8_t* data = line_data(line_index);
  std::uint64_t value = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(data[offset + i]) << (8 * i);
  }
  outcome.value = value;
  return outcome;
}

DataCache::AccessOutcome DataCache::store(std::uint64_t addr, std::uint64_t value,
                                          unsigned bytes, golden::Memory& memory,
                                          coverage::Context& ctx,
                                          bool drop_writeback_when_busy) {
  addr &= isa::kPhysAddrMask;
  AccessOutcome outcome;
  if (!memory.contains(addr, bytes)) {
    return outcome;
  }
  outcome.ok = true;
  const unsigned set = set_index(addr);
  ++lru_clock_;
  if (wb_buffer_busy_ > 0) {
    --wb_buffer_busy_;
  }

  std::size_t line_index = find_index(addr);
  if (line_index != kNoLine) {
    outcome.hit = true;
    lru_[line_index] = lru_clock_;
    ctx.hit(cov_write_hit_, set);
  } else {
    ctx.hit(cov_write_miss_, set);
    line_index = evict_and_fill(addr, memory, ctx, drop_writeback_when_busy,
                                outcome);
  }

  const unsigned offset = static_cast<unsigned>(addr & offset_mask_);
  std::uint8_t* data = line_data(line_index);
  for (unsigned i = 0; i < bytes; ++i) {
    data[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  dirty_[line_index] = 1;
  return outcome;
}

bool DataCache::snoop_ways(std::uint64_t addr, unsigned bytes,
                           std::uint64_t& value) const noexcept {
  const std::size_t line_index = find_index(addr);
  if (line_index == kNoLine) {
    return false;
  }
  const unsigned offset = static_cast<unsigned>(addr & offset_mask_);
  if (offset + bytes > params_.line_bytes) {
    return false;  // crosses the line; let DRAM serve it
  }
  const std::uint8_t* data = line_data(line_index);
  value = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(data[offset + i]) << (8 * i);
  }
  return true;
}

void DataCache::flush_all(golden::Memory& memory, coverage::Context& ctx) {
  // Every valid line is in the touched list, so scanning it finds every
  // dirty line without sweeping all sets x ways frames.
  for (const std::uint32_t index : touched_) {
    if (valid_[index] && dirty_[index]) {
      const unsigned set =
          static_cast<unsigned>((index / params_.ways) & set_mask_);
      const std::uint64_t addr =
          ((tags_[index] << set_shift_) + set) << line_shift_;
      memory.write_block(addr, line_data(index), params_.line_bytes);
      dirty_[index] = 0;
      ctx.hit(cov_flush_dirty_);
    }
  }
  wb_buffer_busy_ = 0;
}

void DataCache::capture(Snapshot& out) const {
  capture_lines(touched_, valid_, tags_, lru_, params_.ways, out.lines);
  out.dirty.clear();
  out.data.clear();
  for (const CachedLine& line : out.lines) {
    out.dirty.push_back(dirty_[line.index]);
    const std::uint8_t* bytes = line_data(line.index);
    out.data.insert(out.data.end(), bytes, bytes + params_.line_bytes);
  }
  out.wb_buffer_busy = wb_buffer_busy_;
}

bool DataCache::matches(const Snapshot& snapshot) const noexcept {
  if (wb_buffer_busy_ != snapshot.wb_buffer_busy ||
      !lines_match(snapshot.lines, touched_, valid_, tags_, lru_, params_.ways)) {
    return false;
  }
  for (std::size_t i = 0; i < snapshot.lines.size(); ++i) {
    const std::uint32_t index = snapshot.lines[i].index;
    if (dirty_[index] != snapshot.dirty[i] ||
        std::memcmp(line_data(index), snapshot.data.data() + i * params_.line_bytes,
                    params_.line_bytes) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace mabfuzz::soc
