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

#include "common/thread_team.hpp"

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
  unsigned workers = 0;                // threads actually used
  std::vector<TaskFailure> failures;   // sorted by index; empty on success

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failures.size();
  }
};

/// The trial-worker pool: a reusable common::ThreadTeam plus the chunked
/// index-claiming loop. The team's threads are reserved from the
/// process-wide thread budget (common/thread_team.hpp), so nested
/// parallelism — a team started from inside another team's lane —
/// composes through one accounting: a configured budget caps
/// the total, exhaustion degrades a pool toward fewer lanes (never
/// deadlocks), and lane assignment never reaches a result byte.
class WorkerPool {
 public:
  /// `workers` = requested lanes; 0 = hardware concurrency. The grant may
  /// be smaller under a configured thread budget — read concurrency().
  explicit WorkerPool(unsigned workers);

  /// Lanes this pool actually executes with (spawned threads + caller).
  [[nodiscard]] unsigned concurrency() const noexcept {
    return team_.concurrency();
  }

  /// Runs fn(i) for every i in [0, tasks). Indices are claimed in chunks
  /// from a shared counter, so lanes load-balance across uneven task
  /// durations. Exceptions never escape a lane: each is recorded as a
  /// TaskFailure (std::exception::what(), or a generic message for
  /// foreign exceptions) and the remaining tasks still run.
  ///
  /// Scheduling affects only *which thread* runs a task, never the task's
  /// inputs — callers that derive per-index RNG streams stay bit-identical
  /// regardless of the worker count.
  [[nodiscard]] PoolReport run(std::uint64_t tasks,
                               const std::function<void(std::uint64_t)>& fn);

 private:
  common::ThreadTeam team_;
};

/// One-shot convenience over WorkerPool (the historical entry point every
/// experiment uses): resolves `workers` (0 = hardware concurrency, capped
/// at the task count), runs, and reports.
[[nodiscard]] PoolReport run_indexed(std::uint64_t tasks, unsigned workers,
                                     const std::function<void(std::uint64_t)>& fn);

}  // namespace mabfuzz::harness
