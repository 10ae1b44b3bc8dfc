#include "common/thread_team.hpp"

#include <atomic>
#include <utility>

namespace mabfuzz::common {

namespace {

// Process-wide accounting. in_use starts at 1: the main thread is an
// execution thread too, so a budget of N means "at most N runnable
// execution threads", not "N spawned threads on top of the caller".
std::atomic<unsigned> g_budget{0};  // 0 = unlimited
std::atomic<unsigned> g_in_use{1};

/// Non-blocking reservation: grants min(wanted, spare) slots, possibly 0.
unsigned reserve_threads(unsigned wanted) noexcept {
  unsigned current = g_in_use.load(std::memory_order_relaxed);
  for (;;) {
    const unsigned cap = g_budget.load(std::memory_order_relaxed);
    const unsigned spare = cap == 0 ? wanted : (cap > current ? cap - current : 0);
    const unsigned grant = wanted < spare ? wanted : spare;
    if (grant == 0) {
      return 0;
    }
    if (g_in_use.compare_exchange_weak(current, current + grant,
                                       std::memory_order_relaxed)) {
      return grant;
    }
  }
}

void release_threads(unsigned count) noexcept {
  if (count != 0) {
    g_in_use.fetch_sub(count, std::memory_order_relaxed);
  }
}

}  // namespace

unsigned hardware_parallelism() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void set_thread_budget(unsigned cap) noexcept {
  g_budget.store(cap, std::memory_order_relaxed);
}

unsigned thread_budget() noexcept {
  return g_budget.load(std::memory_order_relaxed);
}

unsigned threads_in_use() noexcept {
  return g_in_use.load(std::memory_order_relaxed);
}

ThreadTeam::ThreadTeam(unsigned requested) {
  const unsigned wanted = requested <= 1 ? 0 : requested - 1;
  reserved_ = reserve_threads(wanted);
  errors_.assign(reserved_ + 1, nullptr);
  workers_.reserve(reserved_);
  for (unsigned lane = 1; lane <= reserved_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  release_threads(reserved_);
}

void ThreadTeam::run_lane(unsigned lane) {
  try {
    (*job_)(lane);
  } catch (...) {
    errors_[lane] = std::current_exception();
  }
}

void ThreadTeam::worker_loop(unsigned lane) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) {
        return;
      }
      seen_generation = generation_;
    }
    run_lane(lane);
    {
      const std::scoped_lock lock(mutex_);
      if (--remaining_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadTeam::run(const std::function<void(unsigned)>& fn) {
  errors_.assign(concurrency(), nullptr);
  job_ = &fn;
  if (!workers_.empty()) {
    {
      const std::scoped_lock lock(mutex_);
      ++generation_;
      remaining_ = static_cast<unsigned>(workers_.size());
    }
    start_cv_.notify_all();
  }
  run_lane(0);
  if (!workers_.empty()) {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
  }
  job_ = nullptr;
  for (std::exception_ptr& error : errors_) {
    if (error) {
      std::rethrow_exception(std::exchange(error, nullptr));
    }
  }
}

}  // namespace mabfuzz::common
