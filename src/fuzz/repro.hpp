#pragma once
// Reproduction tooling: serialize failing tests to a stable text format,
// parse them back, and minimise them to the smallest program that still
// trips the oracle — the triage workflow that turns a fuzzer finding into
// a bug report.

#include <functional>
#include <optional>
#include <string>

#include "fuzz/backend.hpp"
#include "fuzz/test_case.hpp"

namespace mabfuzz::fuzz {

/// Serialises `test` to a line-oriented text format:
///   # mabfuzz test <id> seed <seed_id> gen <generation>
///   <8-hex-digit word>            (one per instruction, with disassembly
///                                  appended as a comment)
[[nodiscard]] std::string serialize_test(const TestCase& test);

/// Parses the serialize_test format (comments and blank lines ignored).
/// Returns nullopt on any malformed word line.
[[nodiscard]] std::optional<TestCase> parse_test(const std::string& text);

struct MinimizeResult {
  TestCase test;           // the minimised reproducer
  unsigned executions = 0; // backend runs spent minimising
  unsigned removed = 0;    // instructions eliminated
};

/// Greedy delta-debugging: repeatedly deletes instructions (largest chunks
/// first, then singles) while `still_fails(outcome)` holds for the
/// candidate, until a fixpoint. `test` itself must satisfy the predicate.
[[nodiscard]] MinimizeResult minimize_test(
    Backend& backend, const TestCase& test,
    const std::function<bool(const TestOutcome&)>& still_fails);

/// Convenience predicate: the outcome mismatches and (when `bug` is set)
/// the given bug fired.
[[nodiscard]] std::function<bool(const TestOutcome&)> mismatch_predicate(
    std::optional<soc::BugId> bug = std::nullopt);

}  // namespace mabfuzz::fuzz
