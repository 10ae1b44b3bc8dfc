#include "golden/memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "isa/platform.hpp"

namespace mabfuzz::golden {

namespace {
constexpr std::uint64_t kPageWordBits = 64;
}  // namespace

Memory::Memory(std::uint64_t base, std::uint64_t size)
    : base_(base),
      size_(size),
      bytes_(static_cast<std::uint8_t*>(std::calloc(std::max<std::uint64_t>(size, 1), 1))),
      dirty_((size / Memory::kPageBytes + (size % Memory::kPageBytes != 0 ? 1 : 0) +
              kPageWordBits - 1) /
                 kPageWordBits,
             0) {
  if (!bytes_) {
    throw std::bad_alloc();
  }
}

bool Memory::write_words(std::uint64_t addr, const std::vector<isa::Word>& words) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(words.size()) * 4;
  if (addr < base_ || addr - base_ > size_ ||
      span > size_ - (addr - base_)) {
    return false;
  }
  if (words.empty()) {
    return true;
  }
  // Bounds are established once for the whole image; the inner loop writes
  // bytes directly instead of re-validating per word through store().
  const std::uint64_t offset = addr - base_;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const isa::Word word = words[i];
    const std::uint64_t at = offset + i * 4;
    bytes_[at + 0] = static_cast<std::uint8_t>(word);
    bytes_[at + 1] = static_cast<std::uint8_t>(word >> 8);
    bytes_[at + 2] = static_cast<std::uint8_t>(word >> 16);
    bytes_[at + 3] = static_cast<std::uint8_t>(word >> 24);
  }
  mark_dirty(offset, offset + span - 1);
  return true;
}

void Memory::read_block(std::uint64_t addr, std::uint8_t* out,
                        unsigned bytes) const noexcept {
  if (contains(addr, bytes)) {
    std::memcpy(out, bytes_.get() + ((addr & isa::kPhysAddrMask) - base_), bytes);
    return;
  }
  for (unsigned i = 0; i < bytes; ++i) {
    const auto byte = load(addr + i, 1);
    out[i] = byte ? static_cast<std::uint8_t>(*byte) : 0;
  }
}

void Memory::write_block(std::uint64_t addr, const std::uint8_t* in,
                         unsigned bytes) noexcept {
  if (bytes > 0 && contains(addr, bytes)) {
    const std::uint64_t offset = (addr & isa::kPhysAddrMask) - base_;
    std::uint8_t* block = bytes_.get() + offset;
    for (unsigned i = 0; i < bytes; ++i) {
      changes_ += block[i] != in[i] ? 1 : 0;
    }
    std::memcpy(block, in, bytes);
    mark_dirty(offset, offset + bytes - 1);
    return;
  }
  for (unsigned i = 0; i < bytes; ++i) {
    store(addr + i, in[i], 1);
  }
}

void Memory::clear() noexcept {
  std::memset(bytes_.get(), 0, size_);
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

void Memory::reset() noexcept {
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    std::uint64_t mask = dirty_[w];
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      const std::uint64_t begin = (w * kPageWordBits + bit) * kPageBytes;
      const std::uint64_t len =
          std::min<std::uint64_t>(kPageBytes, size_ - begin);
      std::memset(bytes_.get() + begin, 0, static_cast<std::size_t>(len));
    }
    dirty_[w] = 0;
  }
}

std::size_t Memory::dirty_pages() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : dirty_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

}  // namespace mabfuzz::golden
