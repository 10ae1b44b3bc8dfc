#pragma once
// The shared worker pool every multi-trial experiment runs on. Replaces
// the old harness::parallel_runs helper, which recorded only the first
// exception and silently dropped the rest; here every task runs to
// completion regardless of other tasks' failures, and every failure is
// captured per-index so the experiment engine can count failed trials and
// surface them in its aggregate report.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mabfuzz::harness {

/// One failed task: which index threw, and the exception text.
struct TaskFailure {
  std::uint64_t index = 0;
  std::string message;

  friend bool operator==(const TaskFailure&, const TaskFailure&) = default;
};

/// What a run_indexed() call did.
struct PoolReport {
  std::uint64_t tasks = 0;
  std::vector<TaskFailure> failures;   // sorted by index; empty on success

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failures.size();
  }
};

/// Runs fn(i) for every i in [0, tasks) on min(workers, tasks) lanes
/// (`workers` 0 = hardware concurrency): lane 0 is the calling thread,
/// the rest are threads spawned for this call and joined before it
/// returns. Indices are claimed in chunks from a shared counter, so lanes
/// load-balance across uneven task durations. Exceptions never escape a
/// task: each is recorded as a TaskFailure (std::exception::what(), or a
/// generic message for foreign exceptions) and the remaining tasks still
/// run.
///
/// Scheduling affects only *which thread* runs a task, never the task's
/// inputs — callers that derive per-index RNG streams stay bit-identical
/// regardless of the worker count.
[[nodiscard]] PoolReport run_indexed(std::uint64_t tasks, unsigned workers,
                                     const std::function<void(std::uint64_t)>& fn);

}  // namespace mabfuzz::harness
