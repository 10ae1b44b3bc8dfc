#include "common/bytes.hpp"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace mabfuzz::common {

namespace {

/// `error` is the errno the caller captured before any message string
/// allocated (allocation may clobber it).
[[noreturn]] void fail_io(std::string_view action, const std::string& path,
                          int error) {
  throw std::runtime_error(std::string(action) + " '" + path +
                           "': " + std::strerror(error));
}

}  // namespace

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
  // Regular files only: a directory or a device has no size to bound.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    fail_io("cannot read", path, error.value());
  }
  if (size > max_bytes) {
    throw std::runtime_error("'" + path + "' is " + std::to_string(size) +
                             " bytes, above the " + std::to_string(max_bytes) +
                             "-byte bound");
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    fail_io("cannot open", path, errno);
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  if (!is.read(bytes.data(), static_cast<std::streamsize>(size))) {
    fail_io("cannot read", path, errno);
  }
  return bytes;
}

}  // namespace mabfuzz::common
