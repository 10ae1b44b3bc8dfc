#pragma once
// Differential-testing oracle: compares the substrate core's architectural
// trace against the golden ISS trace, exactly as TheHuzz compares the DUT
// simulation against SPIKE. The verdict is the first divergent commit (or
// a trace-length or end-state difference); describe() renders it as
// human-readable text when a reader asks for it.

#include <optional>
#include <string>

#include "isa/commit.hpp"

namespace mabfuzz::fuzz {

/// The oracle's verdict on a divergent test. A record verdict keeps the
/// divergent pair and builds no text; a trace-length or end-state verdict
/// (both rare) carries its text.
struct Mismatch {
  /// Index of the first divergent commit record; commits.size() of the
  /// shorter trace when one trace is a strict prefix, or SIZE_MAX for
  /// end-state-only differences.
  std::size_t commit_index = 0;
  /// The divergent pair of a record verdict; default records otherwise.
  isa::CommitRecord dut;
  isa::CommitRecord golden;
  /// A trace-length or end-state verdict's text; empty for a record verdict.
  std::string text;

  friend bool operator==(const Mismatch&, const Mismatch&) = default;
};

/// Compares traces; nullopt when architecturally identical. Records below
/// `start` are taken as already checked (isa::differs false for each pair):
/// Backend::run_test passes the count its lockstep check verified.
[[nodiscard]] std::optional<Mismatch> compare(const isa::ArchResult& dut,
                                              const isa::ArchResult& golden,
                                              std::size_t start = 0);

/// The verdict as text: "commit 3 (<golden record>): x5 = 0x1 vs 0x2",
/// "trace length 4 vs 5" or "end state: ...".
[[nodiscard]] std::string describe(const Mismatch& mismatch);

/// Renders one commit record for mismatch reports.
[[nodiscard]] std::string describe_commit(const isa::CommitRecord& record);

}  // namespace mabfuzz::fuzz
