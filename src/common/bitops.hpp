#pragma once
// Bit-manipulation helpers shared by the ISA codecs, the golden ISS and the
// micro-architectural substrate. All helpers are constexpr and total.

#include <cstdint>

namespace mabfuzz::common {

/// Mask with the low `n` bits set; n > 63 saturates to all-ones.
[[nodiscard]] constexpr std::uint64_t low_mask(unsigned n) noexcept {
  return n >= 64 ? ~0ULL : ((1ULL << n) - 1ULL);
}

/// Extracts bits [lo, lo+width) of `value` (width >= 1).
[[nodiscard]] constexpr std::uint64_t bits(std::uint64_t value, unsigned lo,
                                           unsigned width) noexcept {
  return (value >> lo) & low_mask(width);
}

/// Extracts the single bit at position `pos`.
[[nodiscard]] constexpr std::uint64_t bit(std::uint64_t value, unsigned pos) noexcept {
  return (value >> pos) & 1ULL;
}

/// Returns `value` with bits [lo, lo+width) replaced by the low bits of
/// `field`.
[[nodiscard]] constexpr std::uint64_t insert_bits(std::uint64_t value, unsigned lo,
                                                  unsigned width,
                                                  std::uint64_t field) noexcept {
  const std::uint64_t m = low_mask(width) << lo;
  return (value & ~m) | ((field << lo) & m);
}

/// Sign-extends the low `width` bits of `value` to 64 bits.
[[nodiscard]] constexpr std::int64_t sign_extend(std::uint64_t value,
                                                 unsigned width) noexcept {
  if (width == 0 || width >= 64) {
    return static_cast<std::int64_t>(value);
  }
  const std::uint64_t m = 1ULL << (width - 1);
  const std::uint64_t v = value & low_mask(width);
  return static_cast<std::int64_t>((v ^ m) - m);
}

/// Truncates to 32 bits then sign-extends (RV64 "W" semantics).
[[nodiscard]] constexpr std::int64_t sext32(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>(static_cast<std::int32_t>(value));
}

/// True when `value` is aligned to `align` (a power of two).
[[nodiscard]] constexpr bool is_aligned(std::uint64_t value, std::uint64_t align) noexcept {
  return (value & (align - 1)) == 0;
}

}  // namespace mabfuzz::common
