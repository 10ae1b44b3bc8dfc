#include "common/bytes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mabfuzz::common {

namespace {

/// `error` is the errno the caller captured before any message string
/// allocated (allocation may clobber it).
[[noreturn]] void fail_io(std::string_view action, const std::string& path,
                          int error) {
  throw std::runtime_error(std::string(action) + " '" + path +
                           "': " + std::strerror(error));
}

/// Closes a descriptor (if any) when the read leaves, by return or throw.
struct FileCloser {
  explicit FileCloser(int descriptor) noexcept : fd(descriptor) {}
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;
  ~FileCloser() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  int fd;
};

}  // namespace

std::uint64_t hash64(std::string_view bytes) {
  // 2^64 / golden ratio, odd. The premultiply spreads each word bit upward
  // and the rotation brings high bits down: no bit passes every step unmixed.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const auto step = [](std::uint64_t lane, std::uint64_t word) {
    return std::rotl(lane ^ (word * kMul), 31) * kMul;
  };
  const std::size_t n = bytes.size();
  const std::uint64_t seed = n * kMul;
  std::array<std::uint64_t, 4> lanes = {seed, seed + 1, seed + 2, seed + 3};
  // Word i goes to lane i mod 4, the 0-7 tail bytes making one last word.
  std::size_t at = 0;
  for (; at + 32 <= n; at += 32) {
    for (std::size_t j = 0; j < lanes.size(); ++j) {
      lanes[j] = step(lanes[j], load_le(bytes.data() + at + 8 * j, 8));
    }
  }
  for (std::size_t j = 0; at < n; at += 8, ++j) {
    lanes[j] = step(lanes[j], load_le(bytes.data() + at,
                                      std::min<std::size_t>(n - at, 8)));
  }
  const std::uint64_t hash =
      step(step(step(lanes[0], lanes[1]), lanes[2]), lanes[3]);
  return hash ^ (hash >> 32);
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      fail_io("cannot open", tmp, errno);
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      const int error = errno;
      std::remove(tmp.c_str());
      fail_io("cannot write", tmp, error);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    std::remove(tmp.c_str());
    fail_io("cannot rename '" + tmp + "' onto", path, error);
  }
}

std::string read_file(const std::string& path, std::uint64_t max_bytes) {
  // One open, fstat and read, checked in the order a stat-then-open read
  // would fail. O_NONBLOCK keeps the open of a FIFO from waiting for a
  // writer; a regular file reads the same either way.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  const int open_error = errno;
  const FileCloser closer{fd};
  struct stat st {};
  if ((fd >= 0 ? ::fstat(fd, &st) : ::stat(path.c_str(), &st)) != 0) {
    fail_io("cannot read", path, errno);
  }
  // Regular files only: a directory or a device has no size to bound.
  if (!S_ISREG(st.st_mode)) {
    fail_io("cannot read", path, S_ISDIR(st.st_mode) ? EISDIR : ENOTSUP);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size > max_bytes) {
    throw std::runtime_error("'" + path + "' is " + std::to_string(size) +
                             " bytes, above the " + std::to_string(max_bytes) +
                             "-byte bound");
  }
  if (fd < 0) {
    fail_io("cannot open", path, open_error);
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  for (std::size_t at = 0; at < bytes.size();) {
    const ssize_t got = ::read(fd, bytes.data() + at, bytes.size() - at);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      // A file that shrank under the read ends early without an errno.
      fail_io("cannot read", path, got < 0 ? errno : EIO);
    }
    at += static_cast<std::size_t>(got);
  }
  return bytes;
}

}  // namespace mabfuzz::common
