#pragma once
// harness::CampaignService — a persistent multi-tenant campaign scheduler.
//
// Jobs (named CampaignConfigs) are submitted while the service runs and
// are interleaved round-robin in fixed-size test quanta
// (Campaign::run_slice) across `workers` lane threads, so many campaigns
// progress concurrently. Control — pause / resume / cancel — takes
// effect at slice boundaries only; a campaign is never touched by two
// lanes at once, so per-job results are byte-identical to an
// uninterrupted Campaign::run() regardless of worker count, sibling jobs
// or scheduling order.
//
// Crash safety: with a checkpoint directory configured the owning lane
// writes a harness::Checkpoint every checkpoint_every tests (atomic
// tmp+rename), stop() writes a final checkpoint for every unfinished
// job, and resume_from_checkpoint() re-admits a job from its snapshot
// (deterministic replay + witness verification; harness/checkpoint.hpp).
//
// Observability: every lifecycle transition and every interesting step
// (new coverage, mismatch, checkpoint) streams as one line of compact
// JSON to the optional events stream. Events carry only job-local,
// deterministic fields — no wall clock, no queue depths — so the event
// log of one job is byte-comparable across runs; interleaving between
// jobs is the only scheduling-dependent aspect. Lines are written and
// flushed atomically under a mutex: a SIGKILL loses at most the line in
// flight.
//
// Threading contract (TSan-clean): all mutable scheduler state is
// guarded by one mutex; lanes publish cached per-job progress fields at
// slice boundaries, and status()/jobs() read only those caches — never
// a live Campaign.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"

namespace mabfuzz::harness {

struct ServiceConfig {
  /// Scheduler lanes (one thread each); the count never changes results.
  unsigned workers = 2;
  /// Max live (queued/running/paused) jobs; submit() throws beyond it.
  std::size_t queue_cap = 64;
  /// Max live jobs per tenant; submit() throws beyond it.
  std::size_t per_tenant_cap = 8;
  /// Tests per scheduling quantum (round-robin granularity).
  std::uint64_t slice = 256;
  /// Tests between periodic checkpoints; 0 = only stop()-time checkpoints.
  std::uint64_t checkpoint_every = 0;
  /// Checkpoint directory; empty disables checkpointing entirely.
  std::string checkpoint_dir;
};

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kPaused,
  kDone,
  kCancelled,
  kFailed,
};

[[nodiscard]] std::string_view job_state_name(JobState state) noexcept;

/// One submission: who wants what run, and where the results go.
struct JobSpec {
  std::string tenant;
  /// Unique across the service's lifetime (live and finished jobs).
  std::string name;
  CampaignConfig config;
  /// Artifact prefix: "<prefix>.json" / "<prefix>.csv" are written on
  /// completion (include_timing=false, so byte-identical). Empty skips
  /// artifact emission; config.corpus_out is honored either way.
  std::string artifact_out;
};

/// Point-in-time job progress (cached at the last slice boundary).
struct JobStatus {
  std::string name;
  std::string tenant;
  JobState state = JobState::kQueued;
  std::uint64_t tests_executed = 0;
  std::uint64_t max_tests = 0;
  std::size_t covered = 0;
  std::uint64_t mismatches = 0;
  std::string error;  // non-empty only for kFailed
};

class CampaignService {
 public:
  /// `events`: optional stream for the JSON event lines (caller keeps it
  /// alive past stop()); nullptr disables event emission.
  explicit CampaignService(ServiceConfig config, std::ostream* events = nullptr);
  /// Implies stop().
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Validates and enqueues a job. Throws std::invalid_argument on a
  /// duplicate name, a full queue, an exhausted tenant cap, or a config
  /// the Campaign constructor rejects (unknown fuzzer, bad corpus path).
  /// Callable before start() (jobs queue up) and while running.
  void submit(JobSpec spec);

  /// Loads `path`, rebuilds the job by verified replay and enqueues it
  /// to continue from its checkpointed step. Same admission checks as
  /// submit(). Returns the job name.
  std::string resume_from_checkpoint(const std::string& path);

  /// Request a state change; applied at the job's next slice boundary.
  /// Returns false when the job is unknown or already terminal.
  bool pause(std::string_view name);
  bool resume(std::string_view name);
  bool cancel(std::string_view name);

  [[nodiscard]] std::optional<JobStatus> status(std::string_view name) const;
  /// All jobs, submission order.
  [[nodiscard]] std::vector<JobStatus> jobs() const;

  /// Spawns config.workers lane threads from the calling thread (they
  /// inherit its CPU affinity). Idempotent.
  void start();

  /// Blocks until no job is runnable or mid-slice (paused jobs do not
  /// block a drain). Requires start(); returns immediately after stop().
  void drain();

  /// Graceful shutdown: lanes finish their current slice and exit, then
  /// the calling thread writes a final checkpoint for every unfinished
  /// job (when checkpointing is enabled). Idempotent; implied by the
  /// destructor.
  void stop();

 private:
  struct Job;
  class JobObserver;

  void lane_loop();
  void run_one_slice(Job& job);
  void finish_job(std::unique_lock<std::mutex>& lock, Job& job,
                  JobState state, std::string error);
  void write_artifacts(Job& job, const RunResult& run);
  void write_checkpoint(Job& job);
  [[nodiscard]] std::string checkpoint_path(const Job& job) const;
  void emit_event(const std::string& line);
  [[nodiscard]] Job* find_job(std::string_view name) noexcept;
  [[nodiscard]] JobStatus status_of(const Job& job) const;
  void admit(std::unique_ptr<Job> job,
             const std::string& accepted_event);

  ServiceConfig config_;
  std::ostream* events_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  std::vector<std::unique_ptr<Job>> jobs_;  // submission order, stable ptrs
  std::deque<Job*> runnable_;               // round-robin queue
  unsigned active_slices_ = 0;
  bool started_ = false;
  bool stopping_ = false;

  std::mutex events_mutex_;
  std::vector<std::thread> lanes_;  // joined by stop()
};

}  // namespace mabfuzz::harness
