#pragma once
// Reusable intra-process thread team + the process-wide execution-thread
// budget. This is the one primitive every parallel layer shares:
// harness::run_indexed runs trial workers on a team, and
// harness::CampaignService runs its lanes on one (so nested teams compose
// through a single accounting).
//
// Design rules (docs/ARCHITECTURE.md, "Parallelism"):
//  - A team is *reusable*: its threads are spawned once, parked on a
//    condition variable between run() calls, and joined at destruction —
//    never thread-per-batch.
//  - Thread identity never reaches results. A team only decides *which*
//    lane executes a task; callers must write outputs to task-indexed
//    slots so artifacts are byte-identical for any concurrency() value.
//  - Budget degradation is non-blocking: when the configured budget has no
//    spare slots, a team is granted fewer (possibly zero) extra threads
//    and the caller's own thread absorbs the work. Fewer lanes never
//    changes results (previous rule), so exhaustion can degrade throughput
//    but can neither deadlock nor change a single artifact byte.

#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mabfuzz::common {

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] unsigned hardware_parallelism() noexcept;

/// Caps the total number of execution threads (caller threads + spawned
/// team threads) the process may hold at once. 0 = unlimited (the
/// default): teams get exactly what they request. The cap binds future
/// reservations only; already-granted threads are unaffected.
void set_thread_budget(unsigned cap) noexcept;
[[nodiscard]] unsigned thread_budget() noexcept;

/// Execution threads currently accounted for: 1 (the process main thread)
/// plus every spawned team thread holding a budget slot. Diagnostic /
/// test observability; never feeds artifacts.
[[nodiscard]] unsigned threads_in_use() noexcept;

/// A parked worker team executing fork-join jobs: run(fn) invokes
/// fn(lane) once per lane in [0, concurrency()), lane 0 on the calling
/// thread, and returns after every lane finished (a full barrier).
class ThreadTeam {
 public:
  /// Requests `requested` total lanes (minimum 1). The extra
  /// `requested - 1` threads are reserved from the process budget; the
  /// grant may be smaller (see set_thread_budget), shrinking
  /// concurrency() — never blocking.
  explicit ThreadTeam(unsigned requested);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Lanes this team executes with: spawned threads + the caller.
  [[nodiscard]] unsigned concurrency() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(lane) on every lane and blocks until all lanes return.
  /// The first throwing lane's exception (lane order) is rethrown after
  /// the barrier; the remaining lanes still complete. Not reentrant: one
  /// run() at a time per team (nested parallelism uses nested teams).
  void run(const std::function<void(unsigned)>& fn);

 private:
  void worker_loop(unsigned lane);
  void run_lane(unsigned lane);

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;  // guarded by mutex_
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool stop_ = false;

  std::vector<std::thread> workers_;
  std::vector<std::exception_ptr> errors_;
  unsigned reserved_ = 0;  // budget slots held until destruction
};

}  // namespace mabfuzz::common
