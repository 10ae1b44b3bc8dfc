#pragma once
// Warnings for conditions a run survives but its operator should see.

#include <string_view>

namespace mabfuzz::common {

/// Writes "[warn] <message>" to stderr as one line.
void warn(std::string_view message);

}  // namespace mabfuzz::common
