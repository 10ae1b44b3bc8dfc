#pragma once
// Little-endian byte images: the writers and the bounds-checked reader
// behind the checkpoint payload (harness/checkpoint.hpp), the corpus-v2
// store (fuzz/corpus.hpp) and every save_state / restore_state pair of
// the engine's stateful components. Doubles travel as their IEEE-754 bit
// patterns and RNG streams as their raw 256-bit state, so an image is
// bit-exact, never round-tripped through decimal. The two whole-file
// helpers at the end are the one path every artifact file takes to and
// from disk.

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

  std::uint8_t u8(std::string_view what) { return byte(what); }

  std::uint32_t u32(std::string_view what) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(byte(what)) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64(std::string_view what) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(byte(what)) << (8 * i);
    }
    return v;
  }

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
    if (into.size_bytes() > bytes_.size() - pos_) {
      fail("truncated payload (" + std::string(what) + ")");
    }
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(into.data(), bytes_.data() + pos_, into.size_bytes());
      pos_ += into.size_bytes();
    } else {
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
    const std::uint32_t n = u32(what);
    if (n > max) {
      fail(std::string(what) + " length " + std::to_string(n) +
           " exceeds the sanity bound");
    }
    return std::string(bytes(what, n));
  }

  /// put_blob's inverse; lengths above `max` are refused.
  std::string blob(std::string_view what, std::uint64_t max) {
    const std::uint64_t n = u64(what);
    if (n > max) {
      fail(std::string(what) + " length " + std::to_string(n) +
           " exceeds the sanity bound");
    }
    return std::string(bytes(what, n));
  }

  /// The next `n` bytes, not copied: valid as long as the image is.
  std::string_view bytes(std::string_view what, std::uint64_t n) {
    if (n > bytes_.size() - pos_) {
      fail("truncated payload (" + std::string(what) + ")");
    }
    const std::string_view out =
        bytes_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

  /// Throws std::runtime_error("<context>: <what>").
  [[noreturn]] void fail(std::string_view what) const {
    throw std::runtime_error(context_ + ": " + std::string(what));
  }

 private:
  std::uint8_t byte(std::string_view what) {
    if (pos_ >= bytes_.size()) {
      fail("truncated payload (" + std::string(what) + ")");
    }
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::string_view bytes_;
  std::string context_;
  std::size_t pos_ = 0;
};

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
