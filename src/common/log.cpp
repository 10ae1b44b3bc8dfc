#include "common/log.hpp"

#include <cstdio>

namespace mabfuzz::common {

void warn(std::string_view message) {
  // One fprintf call: the stream's lock keeps concurrent lines whole.
  std::fprintf(stderr, "[warn] %.*s\n", static_cast<int>(message.size()),
               message.data());
}

}  // namespace mabfuzz::common
