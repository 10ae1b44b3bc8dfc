#pragma once
// Differential-testing oracle: compares the substrate core's architectural
// trace against the golden ISS trace, exactly as TheHuzz compares the DUT
// simulation against SPIKE. The first divergent commit (or end-state
// difference) is reported with a human-readable description.

#include <optional>
#include <string>

#include "isa/commit.hpp"

namespace mabfuzz::fuzz {

struct Mismatch {
  /// Index of the first divergent commit record; commits.size() of the
  /// shorter trace when one trace is a strict prefix, or SIZE_MAX for
  /// end-state-only differences.
  std::size_t commit_index = 0;
  std::string description;

  friend bool operator==(const Mismatch&, const Mismatch&) = default;
};

/// Compares traces; nullopt when architecturally identical.
[[nodiscard]] std::optional<Mismatch> compare(const isa::ArchResult& dut,
                                              const isa::ArchResult& golden);

/// Renders one commit record for mismatch reports.
[[nodiscard]] std::string describe_commit(const isa::CommitRecord& record);

}  // namespace mabfuzz::fuzz
