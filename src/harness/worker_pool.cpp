#include "harness/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace mabfuzz::harness {

namespace {

std::optional<TaskFailure> run_one(const std::function<void(std::uint64_t)>& fn,
                                   std::uint64_t index) {
  try {
    fn(index);
    return std::nullopt;
  } catch (const std::exception& e) {
    return TaskFailure{index, e.what()};
  } catch (...) {
    return TaskFailure{index, "unknown exception"};
  }
}

}  // namespace

PoolReport run_indexed(std::uint64_t tasks, unsigned workers,
                       const std::function<void(std::uint64_t)>& fn) {
  PoolReport report;
  report.tasks = tasks;
  if (tasks == 0) {
    return report;
  }
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::uint64_t>(workers, tasks));

  // Chunked claiming: each lane grabs a small contiguous range per
  // fetch_add, amortising counter contention while keeping enough slack
  // for load balancing across uneven task durations.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, tasks / (static_cast<std::uint64_t>(lanes) * 8));
  std::atomic<std::uint64_t> next{0};
  std::mutex failures_mutex;
  // run_one contains every task exception; what can still escape a lane
  // (an allocation failure recording one) is held per lane and rethrown
  // on the caller once every lane has joined, first lane first.
  std::vector<std::exception_ptr> errors(lanes);
  const auto lane = [&](unsigned id) {
    try {
      for (;;) {
        const std::uint64_t begin = next.fetch_add(chunk);
        if (begin >= tasks) {
          return;
        }
        const std::uint64_t end = std::min(tasks, begin + chunk);
        // No per-task logging here: this is the pool's hot loop, and a
        // debug line per task serialises the lanes on the logger's lock.
        for (std::uint64_t i = begin; i < end; ++i) {
          if (auto failure = run_one(fn, i)) {
            const std::scoped_lock lock(failures_mutex);
            report.failures.push_back(std::move(*failure));
          }
        }
      }
    } catch (...) {
      errors[id] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(lanes - 1);
    for (unsigned id = 1; id < lanes; ++id) {
      threads.emplace_back(lane, id);
    }
    lane(0);
  }  // joins every spawned lane
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  std::sort(report.failures.begin(), report.failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.index < b.index;
            });
  return report;
}

}  // namespace mabfuzz::harness
