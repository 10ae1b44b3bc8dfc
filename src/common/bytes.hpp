#pragma once
// Little-endian byte images: the writers and the bounds-checked reader
// behind the checkpoint payload (harness/checkpoint.hpp), the corpus-v2
// store (fuzz/corpus.hpp) and every save_state / restore_state pair of
// the engine's stateful components. Doubles travel as their IEEE-754 bit
// patterns and RNG streams as their raw 256-bit state, so an image is
// bit-exact, never round-tripped through decimal. hash64 checksums such
// an image, and the two whole-file helpers at the end are the one path
// every artifact file takes to and from disk.

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/rng.hpp"

namespace mabfuzz::common {

inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.append(bytes, sizeof(bytes));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.append(bytes, sizeof(bytes));
}

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// A run of u32 or u64 words, each little-endian: one copy on
/// little-endian hosts (test programs and coverage maps are the bulk of a
/// state image).
template <typename Word>
  requires std::same_as<Word, std::uint32_t> ||
           std::same_as<Word, std::uint64_t>
void put_words(std::string& out, std::span<const Word> words) {
  if constexpr (std::endian::native == std::endian::little) {
    out.append(reinterpret_cast<const char*>(words.data()), words.size_bytes());
  } else {
    for (const Word word : words) {
      if constexpr (sizeof(Word) == 4) {
        put_u32(out, word);
      } else {
        put_u64(out, word);
      }
    }
  }
}

inline void put_rng(std::string& out, const Xoshiro256StarStar& rng) {
  for (const std::uint64_t word : rng.state()) {
    put_u64(out, word);
  }
}

/// u32 length + bytes (short strings).
inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// u64 length + bytes (images that may exceed 4 GiB in principle).
inline void put_blob(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

/// The `n` (at most 8) bytes at `p` as a little-endian word, zero-padded:
/// a plain copy on little-endian hosts.
inline std::uint64_t load_le(const char* p, std::size_t n) {
  std::uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, p, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      word |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
  }
  return word;
}

/// Cursor over a byte image. Every read names its field and is
/// bounds-checked, so an image that lies about its lengths throws
/// std::runtime_error("<context>: truncated payload (<field>)") instead
/// of reading past the buffer. Length and count reads take the bound the
/// caller allocates against and fail before anything is allocated.
class ByteReader {
 public:
  /// `context` prefixes every error message ("checkpoint load").
  ByteReader(std::string_view bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  std::uint8_t u8(std::string_view what) {
    return static_cast<std::uint8_t>(*take(1, what));
  }

  std::uint32_t u32(std::string_view what) {
    return static_cast<std::uint32_t>(load_le(take(4, what), 4));
  }

  std::uint64_t u64(std::string_view what) { return load_le(take(8, what), 8); }

  double f64(std::string_view what) {
    return std::bit_cast<double>(u64(what));
  }

  /// A stream saved by put_rng. The all-zero state (xoshiro's fixed
  /// point, never produced by a real stream) is refused.
  Xoshiro256StarStar rng(std::string_view what) {
    std::array<std::uint64_t, 4> state{};
    for (std::uint64_t& word : state) {
      word = u64(what);
    }
    Xoshiro256StarStar out;
    try {
      out.set_state(state);
    } catch (const std::invalid_argument& e) {
      fail(std::string(what) + ": " + e.what());
    }
    return out;
  }

  /// put_words' inverse: fills `into` (its size is the word count).
  template <typename Word>
    requires std::same_as<Word, std::uint32_t> ||
             std::same_as<Word, std::uint64_t>
  void words(std::string_view what, std::span<Word> into) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(into.data(), take(into.size_bytes(), what), into.size_bytes());
    } else {
      if (into.size_bytes() > bytes_.size() - pos_) {
        fail("truncated payload (" + std::string(what) + ")");
      }
      for (Word& word : into) {
        if constexpr (sizeof(Word) == 4) {
          word = u32(what);
        } else {
          word = u64(what);
        }
      }
    }
  }

  /// A u64 element count that must not exceed `max`.
  std::uint64_t count(std::string_view what, std::uint64_t max) {
    const std::uint64_t n = u64(what);
    if (n > max) {
      fail(std::string(what) + " " + std::to_string(n) +
           " exceeds its bound " + std::to_string(max));
    }
    return n;
  }

  /// put_str's inverse; lengths above `max` are refused.
  std::string str(std::string_view what, std::uint64_t max) {
    return std::string(str_view(what, max));
  }

  /// str() without the copy: valid as long as the image is.
  std::string_view str_view(std::string_view what, std::uint64_t max) {
    const std::uint32_t n = u32(what);
    if (n > max) {
      fail(std::string(what) + " length " + std::to_string(n) +
           " exceeds the sanity bound");
    }
    return bytes(what, n);
  }

  /// put_blob's inverse; lengths above `max` are refused.
  std::string blob(std::string_view what, std::uint64_t max) {
    return std::string(blob_view(what, max));
  }

  /// blob() without the copy: valid as long as the image is.
  std::string_view blob_view(std::string_view what, std::uint64_t max) {
    const std::uint64_t n = u64(what);
    if (n > max) {
      fail(std::string(what) + " length " + std::to_string(n) +
           " exceeds the sanity bound");
    }
    return bytes(what, n);
  }

  /// The next `n` bytes, not copied: valid as long as the image is.
  std::string_view bytes(std::string_view what, std::uint64_t n) {
    return {take(n, what), static_cast<std::size_t>(n)};
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

  /// Throws std::runtime_error("<context>: <what>").
  [[noreturn]] void fail(std::string_view what) const {
    throw std::runtime_error(context_ + ": " + std::string(what));
  }

 private:
  /// The next `n` bytes, after one bounds check for the whole field.
  const char* take(std::uint64_t n, std::string_view what) {
    if (n > bytes_.size() - pos_) {
      fail("truncated payload (" + std::string(what) + ")");
    }
    const char* p = bytes_.data() + pos_;
    pos_ += static_cast<std::size_t>(n);
    return p;
  }

  std::string_view bytes_;
  std::string context_;
  std::size_t pos_ = 0;
};

/// The checkpoint trailer and fingerprint hash (docs/ARTIFACTS.md): 8
/// little-endian bytes per step into four lanes, every step a bijection of
/// its lane, so a change within one aligned 8-byte word always shows.
[[nodiscard]] std::uint64_t hash64(std::string_view bytes);

/// Writes `bytes` to "<path>.tmp", flushes it and renames it onto `path`,
/// so an interrupted or failed write leaves the previous file intact (no
/// fsync: a crash of the process is covered, a crash of the host is not).
/// Throws std::runtime_error naming the file and the OS reason.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// The whole file at `path`. A file larger than `max_bytes` is refused
/// before anything is allocated. Throws std::runtime_error naming the
/// file and the OS reason or the bound.
[[nodiscard]] std::string read_file(const std::string& path,
                                    std::uint64_t max_bytes);

}  // namespace mabfuzz::common
