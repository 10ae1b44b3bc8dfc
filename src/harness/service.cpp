#include "harness/service.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "harness/experiment.hpp"
#include "soc/bugs.hpp"

namespace mabfuzz::harness {

std::string_view job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kPaused: return "paused";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

namespace {

/// One compact JSON event line: the "event" and "job" keys, then the
/// fields `write_fields` adds.
template <typename WriteFields>
std::string event_line(std::string_view event, std::string_view job,
                       WriteFields&& write_fields) {
  std::ostringstream line;
  common::JsonWriter json(line, /*pretty=*/false);
  json.begin_object();
  json.key("event").value(event);
  json.key("job").value(job);
  write_fields(json);
  json.end_object();
  return std::move(line).str();
}

}  // namespace

/// Per-job campaign observer: counts arm pulls for the done event and
/// streams new-coverage / mismatch events, in that order within a step.
/// Runs on the lane that owns the job's slice, so the Job fields it touches
/// are single-writer; event emission serializes through the service's
/// events mutex.
class CampaignService::JobObserver final : public CampaignObserver {
 public:
  JobObserver(CampaignService& service, Job& job)
      : service_(service), job_(job) {}

  void on_step(const Campaign& campaign, const fuzz::StepResult& step) override;

 private:
  CampaignService& service_;
  Job& job_;
};

struct CampaignService::Job {
  JobSpec spec;
  JobState state = JobState::kQueued;
  bool started = false;           // "started" event emitted
  bool pause_requested = false;   // applied at the next slice boundary
  bool cancel_requested = false;
  std::unique_ptr<Campaign> campaign;
  std::unique_ptr<JobObserver> observer;
  std::vector<std::uint64_t> arm_pulls;  // lane-owned (observer-written)
  std::uint64_t last_checkpoint_step = 0;

  // Cached progress, published under the service mutex at slice
  // boundaries; status() reads these, never the live campaign.
  std::uint64_t tests_executed = 0;
  std::size_t covered = 0;
  std::uint64_t mismatches = 0;
  std::string error;
};

void CampaignService::JobObserver::on_step(const Campaign& campaign,
                                           const fuzz::StepResult& step) {
  if (step.arm) {
    if (*step.arm >= job_.arm_pulls.size()) {
      job_.arm_pulls.resize(*step.arm + 1, 0);
    }
    ++job_.arm_pulls[*step.arm];
  }
  if (step.new_global_points > 0) {
    service_.emit_event(event_line(
        "new_coverage", job_.spec.name, [&](common::JsonWriter& json) {
          json.key("test").value(step.test_index);
          json.key("new_points").value(std::uint64_t{step.new_global_points});
          json.key("covered").value(std::uint64_t{campaign.covered()});
        }));
  }
  if (step.mismatch) {
    service_.emit_event(event_line(
        "mismatch", job_.spec.name, [&](common::JsonWriter& json) {
          json.key("test").value(step.test_index);
          json.key("bugs").begin_array();
          // Firing order is commit order within the test — deterministic.
          for (const soc::BugFiring& firing : step.firings) {
            json.value(soc::bug_info(firing.id).name);
          }
          json.end_array();
        }));
  }
}

CampaignService::CampaignService(ServiceConfig config, std::ostream* events)
    : config_(std::move(config)), events_(events) {
  if (config_.workers == 0) {
    config_.workers = 1;
  }
  if (config_.slice == 0) {
    config_.slice = 1;
  }
  if (!config_.checkpoint_dir.empty()) {
    // Fail at construction, not at the first checkpoint mid-campaign.
    validate_output_directory(config_.checkpoint_dir + "/x",
                              "checkpoint directory");
  }
}

CampaignService::~CampaignService() { stop(); }

void CampaignService::emit_event(const std::string& line) {
  if (events_ == nullptr) {
    return;
  }
  const std::lock_guard<std::mutex> guard(events_mutex_);
  // One write + flush per line: a crash loses at most the line in flight
  // and never interleaves two events.
  *events_ << line << '\n';
  events_->flush();
}

CampaignService::Job* CampaignService::find_job(
    std::string_view name) noexcept {
  for (const std::unique_ptr<Job>& job : jobs_) {
    if (job->spec.name == name) {
      return job.get();
    }
  }
  return nullptr;
}

JobStatus CampaignService::status_of(const Job& job) const {
  JobStatus out;
  out.name = job.spec.name;
  out.tenant = job.spec.tenant;
  out.state = job.state;
  out.tests_executed = job.tests_executed;
  out.max_tests = job.spec.config.max_tests;
  out.covered = job.covered;
  out.mismatches = job.mismatches;
  out.error = job.error;
  return out;
}

namespace {

[[nodiscard]] bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kCancelled ||
         state == JobState::kFailed;
}

/// A job name becomes a file name (<checkpoint_dir>/<name>.ckpt), and it
/// arrives from the serve protocol and from checkpoint files: anything
/// but a short plain name could escape the checkpoint directory or fail
/// every checkpoint write mid-run.
void validate_job_name(const std::string& name) {
  const bool plain_chars =
      std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
      });
  if (name.empty() || name.size() > 128 || !plain_chars || name == "." ||
      name == "..") {
    throw std::invalid_argument(
        "service: job name '" + name +
        "' must be 1-128 bytes of [A-Za-z0-9._-], and not '.' or '..'");
  }
}

}  // namespace

void CampaignService::admit(std::unique_ptr<Job> job,
                            const std::string& accepted_event) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (find_job(job->spec.name) != nullptr) {
    throw std::invalid_argument("service: job name '" + job->spec.name +
                                "' already exists");
  }
  std::size_t live = 0;
  std::size_t tenant_live = 0;
  for (const std::unique_ptr<Job>& existing : jobs_) {
    if (is_terminal(existing->state)) {
      continue;
    }
    ++live;
    tenant_live += existing->spec.tenant == job->spec.tenant ? 1 : 0;
  }
  if (live >= config_.queue_cap) {
    throw std::invalid_argument(
        "service: queue is full (" + std::to_string(config_.queue_cap) +
        " live jobs); drain or raise queue_cap");
  }
  if (tenant_live >= config_.per_tenant_cap) {
    throw std::invalid_argument(
        "service: tenant '" + job->spec.tenant + "' is at its cap (" +
        std::to_string(config_.per_tenant_cap) + " live jobs)");
  }
  Job* raw = job.get();
  jobs_.push_back(std::move(job));
  runnable_.push_back(raw);
  lock.unlock();
  // Accepted precedes every other event of the job: lanes are only woken
  // after the line is out.
  emit_event(accepted_event);
  work_cv_.notify_one();
}

void CampaignService::submit(JobSpec spec) {
  validate_job_name(spec.name);
  if (!spec.artifact_out.empty()) {
    // Fail at admission, not after the job's whole budget has run.
    validate_output_directory(spec.artifact_out, "artifact-out");
  }
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  // Constructed on the submitting thread so a bad config (unknown fuzzer,
  // missing corpus-in) throws out of submit(), not inside a lane.
  job->campaign = std::make_unique<Campaign>(job->spec.config);
  job->observer = std::make_unique<JobObserver>(*this, *job);
  job->campaign->add_observer(*job->observer);
  std::string event = event_line(
      "accepted", job->spec.name, [&](common::JsonWriter& json) {
        json.key("tenant").value(job->spec.tenant);
        json.key("fuzzer").value(job->spec.config.fuzzer);
        json.key("tests").value(job->spec.config.max_tests);
      });
  admit(std::move(job), event);
}

std::string CampaignService::resume_from_checkpoint(const std::string& path) {
  const Checkpoint checkpoint = Checkpoint::load(path);
  validate_job_name(checkpoint.job_name);
  if (!checkpoint.artifact_out.empty()) {
    validate_output_directory(checkpoint.artifact_out, "artifact-out");
  }
  auto job = std::make_unique<Job>();
  job->spec.tenant = checkpoint.tenant;
  job->spec.name = checkpoint.job_name;
  job->spec.artifact_out = checkpoint.artifact_out;
  // State restore: one probe test checked against the checkpoint's
  // fingerprint, then the captured state and its round trip.
  job->campaign = resume_campaign(checkpoint);
  job->spec.config = job->campaign->config();
  job->observer = std::make_unique<JobObserver>(*this, *job);
  job->campaign->add_observer(*job->observer);
  job->tests_executed = job->campaign->tests_executed();
  job->last_checkpoint_step = job->tests_executed;
  job->covered = job->campaign->covered();
  job->mismatches = job->campaign->mismatches();
  std::string event = event_line(
      "accepted", job->spec.name, [&](common::JsonWriter& json) {
        json.key("tenant").value(job->spec.tenant);
        json.key("fuzzer").value(job->spec.config.fuzzer);
        json.key("tests").value(job->spec.config.max_tests);
        json.key("resumed_at").value(job->tests_executed);
        json.key("checkpoint").value(path);
      });
  std::string name = job->spec.name;
  admit(std::move(job), event);
  return name;
}

bool CampaignService::pause(std::string_view name) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job* job = find_job(name);
  if (job == nullptr || is_terminal(job->state) ||
      job->state == JobState::kPaused) {
    return false;
  }
  job->pause_requested = true;
  return true;
}

bool CampaignService::resume(std::string_view name) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job* job = find_job(name);
  if (job == nullptr || is_terminal(job->state)) {
    return false;
  }
  if (job->pause_requested) {
    // The pause had not landed yet; just withdraw it.
    job->pause_requested = false;
    return true;
  }
  if (job->state != JobState::kPaused) {
    return false;
  }
  job->state = JobState::kQueued;
  runnable_.push_back(job);
  const std::string event =
      event_line("resumed", job->spec.name, [](common::JsonWriter&) {});
  lock.unlock();
  work_cv_.notify_one();
  emit_event(event);
  return true;
}

bool CampaignService::cancel(std::string_view name) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job* job = find_job(name);
  if (job == nullptr || is_terminal(job->state)) {
    return false;
  }
  if (job->state == JobState::kPaused) {
    // No lane will visit a parked job; finalize it here.
    finish_job(lock, *job, JobState::kCancelled, {});
    return true;
  }
  job->cancel_requested = true;
  return true;
}

std::optional<JobStatus> CampaignService::status(std::string_view name) const {
  const std::lock_guard<std::mutex> guard(mutex_);
  // find_job is non-const for the scheduler's benefit; the lookup itself
  // does not mutate.
  for (const std::unique_ptr<Job>& job : jobs_) {
    if (job->spec.name == name) {
      return status_of(*job);
    }
  }
  return std::nullopt;
}

std::vector<JobStatus> CampaignService::jobs() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const std::unique_ptr<Job>& job : jobs_) {
    out.push_back(status_of(*job));
  }
  return out;
}

void CampaignService::start() {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    if (started_ || stopping_) {
      return;
    }
    started_ = true;
  }
  lanes_.reserve(config_.workers);
  for (unsigned lane = 0; lane < config_.workers; ++lane) {
    lanes_.emplace_back([this] { lane_loop(); });
  }
}

void CampaignService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] {
    return stopping_ || !started_ ||
           (runnable_.empty() && active_slices_ == 0);
  });
}

void CampaignService::stop() {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    if (stopping_) {
      return;  // lanes already joined, final checkpoints already written
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  drain_cv_.notify_all();
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) {
      lane.join();
    }
  }
  // Lanes are gone; the caller thread owns every campaign now. Park the
  // unfinished ones in final checkpoints so a restart can resume them.
  if (config_.checkpoint_dir.empty()) {
    return;
  }
  for (const std::unique_ptr<Job>& job : jobs_) {
    if (is_terminal(job->state) || job->campaign == nullptr) {
      continue;
    }
    write_checkpoint(*job);
  }
}

std::string CampaignService::checkpoint_path(const Job& job) const {
  return config_.checkpoint_dir + "/" + job.spec.name + ".ckpt";
}

void CampaignService::write_checkpoint(Job& job) {
  Checkpoint checkpoint = Checkpoint::capture(*job.campaign);
  checkpoint.job_name = job.spec.name;
  checkpoint.tenant = job.spec.tenant;
  checkpoint.artifact_out = job.spec.artifact_out;
  const std::string path = checkpoint_path(job);
  checkpoint.save(path);
  job.last_checkpoint_step = job.campaign->tests_executed();
  emit_event(event_line(
      "checkpoint", job.spec.name, [&](common::JsonWriter& json) {
        json.key("test").value(job.last_checkpoint_step);
        json.key("path").value(path);
      }));
}

void CampaignService::write_artifacts(Job& job, const RunResult& run) {
  // Built even without an artifact prefix: it saves the corpus.
  TrialResult trial = finished_trial(*job.campaign, run);
  if (job.spec.artifact_out.empty()) {
    return;
  }
  // One-trial experiment wrapper: the service emits the same
  // experiment-v1 JSON/CSV schema the matrix engine writes, with timing
  // excluded so reruns and resumed runs are byte-identical.
  ExperimentResult result;
  result.trials.push_back(std::move(trial));
  aggregate_experiment(result);

  const ArtifactOptions options{/*include_timing=*/false};
  std::ostringstream json;
  write_experiment_json(json, result, options);
  common::write_file_atomic(job.spec.artifact_out + ".json", json.str());
  std::ostringstream csv;
  write_trials_csv(csv, result, options);
  common::write_file_atomic(job.spec.artifact_out + ".csv", csv.str());
}

/// Terminal transition: publishes the final state, drops the campaign,
/// removes the job's checkpoint (its run is settled) and emits the
/// lifecycle event. Caller holds the service mutex; the event is emitted
/// with it held (lock order mutex_ -> events_mutex_ is acquired nowhere
/// in reverse).
void CampaignService::finish_job(std::unique_lock<std::mutex>& lock, Job& job,
                                 JobState state, std::string error) {
  job.state = state;
  job.error = std::move(error);
  if (job.campaign != nullptr) {
    job.tests_executed = job.campaign->tests_executed();
    job.covered = job.campaign->covered();
    job.mismatches = job.campaign->mismatches();
  }

  // The terminal state's name is the event's name.
  const std::string event = event_line(
      job_state_name(state), job.spec.name, [&](common::JsonWriter& json) {
        if (state == JobState::kDone) {
          json.key("tests").value(job.tests_executed);
          json.key("covered").value(std::uint64_t{job.covered});
          json.key("universe").value(
              std::uint64_t{job.campaign->coverage_universe()});
          json.key("mismatches").value(job.mismatches);
          json.key("detected_bugs").value(
              std::uint64_t{job.campaign->detected_bug_count()});
          json.key("arm_pulls").begin_array();
          for (const std::uint64_t pulls : job.arm_pulls) {
            json.value(pulls);
          }
          json.end_array();
        } else if (state == JobState::kCancelled) {
          json.key("tests").value(job.tests_executed);
        } else {
          json.key("error").value(job.error);
        }
      });

  // The campaign (backend and corpus) is the job's only heavy state;
  // a finished job keeps just its status row.
  job.campaign.reset();
  job.observer.reset();
  if (!config_.checkpoint_dir.empty()) {
    std::remove(checkpoint_path(job).c_str());
  }

  lock.unlock();
  emit_event(event);
  drain_cv_.notify_all();
  lock.lock();
}

void CampaignService::run_one_slice(Job& job) {
  // Unlocked region: this lane exclusively owns the job's campaign (the
  // job is neither in runnable_ nor visible to another lane until the
  // boundary below).
  std::optional<RunResult> finished;
  std::string error;
  bool failed = false;
  try {
    finished = job.campaign->run_slice(
        StopCondition::max_tests(job.spec.config.max_tests), config_.slice);
    if (!config_.checkpoint_dir.empty() && config_.checkpoint_every > 0 &&
        !finished.has_value() &&
        job.campaign->tests_executed() - job.last_checkpoint_step >=
            config_.checkpoint_every) {
      write_checkpoint(job);
    }
    if (finished.has_value()) {
      write_artifacts(job, *finished);
    }
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  --active_slices_;
  job.tests_executed = job.campaign->tests_executed();
  job.covered = job.campaign->covered();
  job.mismatches = job.campaign->mismatches();
  if (failed) {
    finish_job(lock, job, JobState::kFailed, std::move(error));
  } else if (finished.has_value()) {
    finish_job(lock, job, JobState::kDone, {});
  } else {
    job.state = JobState::kQueued;
    runnable_.push_back(&job);  // round-robin: back of the queue
    lock.unlock();
    work_cv_.notify_one();
    lock.lock();
  }
  drain_cv_.notify_all();
}

void CampaignService::lane_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [this] { return stopping_ || !runnable_.empty(); });
    if (stopping_) {
      return;
    }
    Job* job = runnable_.front();
    runnable_.pop_front();
    // Control requests land at slice boundaries only.
    if (job->cancel_requested) {
      finish_job(lock, *job, JobState::kCancelled, {});
      continue;
    }
    if (job->pause_requested) {
      job->pause_requested = false;
      job->state = JobState::kPaused;
      // Built under the lock: once it is released a concurrent resume()
      // may hand the job to another lane, which would race these reads.
      const std::string event = event_line(
          "paused", job->spec.name, [&](common::JsonWriter& json) {
            json.key("test").value(job->tests_executed);
          });
      lock.unlock();
      emit_event(event);
      drain_cv_.notify_all();
      continue;
    }
    job->state = JobState::kRunning;
    ++active_slices_;
    const bool first_slice = !job->started;
    job->started = true;
    lock.unlock();

    if (first_slice) {
      emit_event(event_line(
          "started", job->spec.name, [&](common::JsonWriter& json) {
            json.key("at_test").value(job->tests_executed);
          }));
    }
    run_one_slice(*job);
  }
}

}  // namespace mabfuzz::harness
