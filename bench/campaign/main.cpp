// campaign_bench: the end-to-end campaign benchmark.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [key=value ...]
//   campaign_bench --smoke --workdir DIR
//
// --trace 0 measures what a user of the library sees (tests per second,
// coverage reached, checkpoint resume cost, set-up time, peak memory),
// driving campaigns only through harness::Campaign, harness::CampaignService
// and harness::Checkpoint. --trace 1 re-drives the same campaigns through
// the replicas in replica.hpp and reports host time per layer plus the
// simulated workload counters. Both modes check their own outputs and print
// one JSON object as the last line of stdout; see README.md for the metric
// table and why each workload exists.
//
// Extra key=value arguments are CampaignConfig pairs applied to every
// campaign of the workload (e.g. exec-batch=64, exec-workers=4), for
// exploration runs; no gating workload uses them.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "harness/service.hpp"
#include "replica.hpp"
#include "trace.hpp"

namespace campaign_bench {
namespace {

namespace fs = std::filesystem;
namespace harness = mabfuzz::harness;

// --- workloads --------------------------------------------------------------

struct WorkloadSpec {
  std::string_view name;
  /// Per-campaign key=value pairs; the benchmark appends seed and run.
  std::vector<std::vector<std::string>> jobs;
  /// Run the jobs as one in-process CampaignService instead of one
  /// Campaign after another.
  bool service = false;
  /// Test count at which each job's checkpoint is captured for resume.
  std::uint64_t checkpoint_at = 0;
};

std::vector<std::string> job(std::initializer_list<std::string> pairs,
                             std::uint64_t tests) {
  std::vector<std::string> out(pairs);
  out.push_back("tests=" + std::to_string(tests));
  return out;
}

// The test budgets are fixed so that covered_points is a function of the
// seed alone. One campaign can cost 2x another of the same seed (TheHuzz on
// cva6: 11-26 us/test across twelve runs of one seed, at 10k, 25k and 50k
// tests alike; a lineage that loops to the instruction budget is costly),
// so every workload runs many short decorrelated campaigns of its seed
// (run=0,1,...) and reports their sum. Resume is timed on a checkpoint of
// each of the first kResumed of them; its cost is a ratio (see
// resume_round), which needs no more to be steady.
constexpr std::uint64_t kCheckpointAt = 1024;
constexpr std::size_t kResumed = 16;

std::vector<WorkloadSpec> workloads(const fs::path& workdir) {
  std::vector<WorkloadSpec> out;
  WorkloadSpec boom{"boom-ucb", {}, false, kCheckpointAt};
  for (int run = 0; run < 32; ++run) {
    boom.jobs.push_back(job({"fuzzer=ucb", "core=boom", "bugs=default"}, 5'000));
  }
  // TheHuzz's per-campaign cost has the heaviest tail: twice the campaigns.
  WorkloadSpec cva6{"cva6-thehuzz-bugs", {}, false, kCheckpointAt};
  for (int run = 0; run < 64; ++run) {
    cva6.jobs.push_back(job({"fuzzer=thehuzz", "core=cva6", "bugs=default"}, 5'000));
  }
  // Eight runs of each of the four service policies.
  WorkloadSpec service{"rocket-service", {}, true, kCheckpointAt};
  for (int run = 0; run < 8; ++run) {
    for (const char* fuzzer : {"fuzzer=ucb", "fuzzer=exp3", "fuzzer=thompson"}) {
      service.jobs.push_back(job({fuzzer, "core=rocket", "bugs=default"}, 4'000));
    }
    const fs::path corpus = workdir / ("reuse" + std::to_string(run) + ".corpus");
    service.jobs.push_back(job({"fuzzer=reuse", "core=rocket", "bugs=default",
                                "corpus-out=" + corpus.string()},
                               4'000));
  }
  out.push_back(std::move(boom));
  out.push_back(std::move(cva6));
  out.push_back(std::move(service));
  return out;
}

std::vector<harness::CampaignConfig> configs_of(const WorkloadSpec& spec,
                                                std::uint64_t seed,
                                                const std::vector<std::string>& extra) {
  std::vector<harness::CampaignConfig> out;
  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    std::vector<std::string> pairs = spec.jobs[i];
    pairs.insert(pairs.end(), extra.begin(), extra.end());
    pairs.push_back("seed=" + std::to_string(seed));
    pairs.push_back("run=" + std::to_string(i));
    out.push_back(harness::CampaignConfig::from_pairs(pairs));
  }
  return out;
}

// --- result accounting ------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
  void set(const std::string& name, double value, std::string unit) {
    metrics[name] = Metric{value, std::move(unit)};
  }
  [[nodiscard]] bool correct() const { return failed == 0; }
};

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// best[i] = min(best[i], sample[i]); the vectors have equal sizes.
template <typename T>
void keep_min(std::vector<T>& best, const std::vector<T>& sample) {
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], sample[i]);
  }
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Stops a repeated measurement when the next repetition would overrun the
/// deadline (taking the last one's duration as the estimate), after at
/// least `min_reps`.
bool another_rep(std::size_t done, std::size_t min_reps, std::uint64_t last_ns,
                 std::uint64_t deadline_ns) {
  if (done < min_reps) {
    return true;
  }
  return now_ns() + last_ns <= deadline_ns;
}

// --- CPU rotation -----------------------------------------------------------
//
// On a shared host one CPU can run this code far slower than its siblings
// for seconds at a time (measured: 16-17 us/test on three CPUs against
// 21-34 us/test on the fourth, same binary and seed). Repetition r of a
// measurement is therefore pinned to the r-th allowed CPU (the r-th pair
// for the two-lane service), so every run visits every CPU, and the
// untraced metrics take the fastest repetition of each identical unit of
// work: host noise only ever adds time. Host speed also drifts by a quarter
// over minutes, on every CPU at once, so resume cost is reported as a ratio
// of two timings taken back to back.

class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Restores the affinity the process started with.
  ~CpuRotation() { pin(cpus_); }

  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }

  /// Pins the calling thread (and every thread it starts afterwards) to
  /// `width` consecutive allowed CPUs starting at the `rep`-th.
  void pin_rep(std::size_t rep, std::size_t width) const {
    if (cpus_.empty()) {
      return;
    }
    std::vector<int> chosen;
    for (std::size_t k = 0; k < std::min(width, cpus_.size()); ++k) {
      chosen.push_back(cpus_[(rep + k) % cpus_.size()]);
    }
    pin(chosen);
  }

 private:
  static void pin(const std::vector<int>& cpus) {
    if (cpus.empty()) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) {
      CPU_SET(cpu, &set);
    }
    // Best effort: a refused pin only leaves the run noisier.
    (void)sched_setaffinity(0, sizeof(set), &set);
  }

  std::vector<int> cpus_;
};

// --- the untraced workload --------------------------------------------------

/// Tests per quantum when a campaign is timed slice by slice.
constexpr std::uint64_t kTimingSlice = 1000;

struct RepResult {
  std::uint64_t tests = 0;
  /// Host ns of each timed unit of work (a campaign slice, or the whole
  /// service run), in the same order on every repetition.
  std::vector<std::uint64_t> unit_ns;
  std::vector<double> setup_s;
  std::vector<Witness> witnesses;
};

RepResult run_campaigns(const std::vector<harness::CampaignConfig>& configs,
                        Outcome& out) {
  RepResult rep;
  for (const harness::CampaignConfig& config : configs) {
    ++out.attempted;
    const std::uint64_t t0 = now_ns();
    harness::Campaign campaign(config);
    rep.setup_s.push_back(seconds_since(t0));
    const harness::StopCondition stop = harness::StopCondition::max_tests(config.max_tests);
    std::optional<harness::RunResult> result;
    while (!result) {
      const std::uint64_t t = now_ns();
      result = campaign.run_slice(stop, kTimingSlice);
      rep.unit_ns.push_back(now_ns() - t);
    }
    rep.tests += result->tests_executed;
    if (result->tests_executed != config.max_tests) {
      out.fail(config.fuzzer + ": stopped at " +
               std::to_string(result->tests_executed) + " tests");
    }
    rep.witnesses.push_back(witness_of(campaign));
  }
  return rep;
}

/// One service run on repetition `rep`'s CPUs: set-up pinned to one CPU,
/// like a campaign's, then the two lanes on a pair.
RepResult run_service(const std::vector<harness::CampaignConfig>& configs,
                      const fs::path& workdir, const CpuRotation& cpus,
                      std::size_t rep_index, Outcome& out) {
  RepResult rep;
  const fs::path checkpoints = workdir / "checkpoints";
  fs::create_directories(checkpoints);
  harness::ServiceConfig service_config;
  service_config.workers = 2;
  service_config.slice = 256;
  service_config.checkpoint_every = 1024;
  service_config.checkpoint_dir = checkpoints.string();

  cpus.pin_rep(rep_index, 1);
  const std::uint64_t t0 = now_ns();
  harness::CampaignService service(service_config);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    harness::JobSpec spec;
    spec.tenant = configs[i].fuzzer;  // one tenant per policy
    spec.name = "job" + std::to_string(i) + "-" + configs[i].fuzzer;
    spec.config = configs[i];
    service.submit(std::move(spec));
  }
  const std::uint64_t t1 = now_ns();
  cpus.pin_rep(rep_index, 2);  // the dispatcher and its lanes inherit this
  service.start();
  service.drain();
  rep.unit_ns.push_back(now_ns() - t1);
  rep.setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  service.stop();

  const std::vector<harness::JobStatus> jobs = service.jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const harness::JobStatus& status = jobs[i];
    ++out.attempted;
    rep.tests += status.tests_executed;
    if (status.state != harness::JobState::kDone ||
        status.tests_executed != status.max_tests) {
      out.fail(status.name + ": " + std::string(harness::job_state_name(status.state)) +
               " after " + std::to_string(status.tests_executed) + " tests " +
               status.error);
    }
    Witness w;
    w.tests = status.tests_executed;
    w.covered = status.covered;
    w.mismatches = status.mismatches;
    if (!configs[i].corpus_out.empty()) {
      w.corpus_image = read_file(configs[i].corpus_out);
    }
    rep.witnesses.push_back(std::move(w));
  }
  return rep;
}

/// Runs `campaign` for its first `steps` tests as one unfinished slice,
/// the state a service checkpoints mid-run.
void run_first(harness::Campaign& campaign, std::uint64_t steps) {
  (void)campaign.run_slice(
      harness::StopCondition::max_tests(campaign.config().max_tests), steps);
}

/// Campaign `config` stopped after `steps` tests, checkpointed to `path`.
void write_checkpoint(const harness::CampaignConfig& config, std::uint64_t steps,
                      const fs::path& path) {
  harness::Campaign campaign(config);
  run_first(campaign, steps);
  harness::Checkpoint::capture(campaign).save(path.string());
}

/// Host seconds to load `path` and resume it by verified replay.
double time_resume(const fs::path& path, std::uint64_t steps, Outcome& out) {
  ++out.attempted;
  const std::uint64_t t0 = now_ns();
  const harness::Checkpoint loaded = harness::Checkpoint::load(path.string());
  const std::unique_ptr<harness::Campaign> resumed =
      harness::resume_campaign(loaded);
  const double seconds = seconds_since(t0);
  if (resumed->tests_executed() != steps) {
    out.fail("resume of " + path.string() + " landed at " +
             std::to_string(resumed->tests_executed()) + " tests");
  }
  return seconds;
}

/// Host seconds to construct `config`'s campaign and run its first `steps`
/// tests: what restarting costs instead of resuming.
double time_fresh(const harness::CampaignConfig& config, std::uint64_t steps) {
  const std::uint64_t t0 = now_ns();
  harness::Campaign campaign(config);
  run_first(campaign, steps);
  return seconds_since(t0);
}

/// Host time to resume every checkpoint in `paths` over the time to rerun
/// the same prefixes from scratch. Each resume follows its fresh run on the
/// same CPU, so a drift in host speed cancels.
double resume_round(const std::vector<harness::CampaignConfig>& configs,
                    const std::vector<fs::path>& paths, std::uint64_t steps,
                    Outcome& out) {
  double fresh = 0.0;
  double resumed = 0.0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    fresh += time_fresh(configs[i], steps);
    resumed += time_resume(paths[i], steps, out);
  }
  return resumed / fresh;
}

void measure_untraced(const WorkloadSpec& spec,
                      const std::vector<harness::CampaignConfig>& configs,
                      const fs::path& workdir, double seconds,
                      std::size_t min_reps, Outcome& out) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  const CpuRotation cpus;
  std::vector<std::uint64_t> best_ns;
  std::vector<double> setup_s;
  std::vector<Witness> reference;
  std::vector<double> resume_ratios;
  std::uint64_t tests = 0;
  std::uint64_t last_ns = 0;

  // One checkpoint per resumed campaign, resumed once per repetition.
  std::vector<fs::path> checkpoints;
  for (std::size_t i = 0; i < std::min(kResumed, configs.size()); ++i) {
    checkpoints.push_back(workdir / ("resume" + std::to_string(i) + ".ckpt"));
    write_checkpoint(configs[i], spec.checkpoint_at, checkpoints.back());
  }

  min_reps = std::max(min_reps, cpus.size());
  for (std::size_t rep = 0; another_rep(rep, min_reps, last_ns, deadline); ++rep) {
    const std::uint64_t start = now_ns();
    cpus.pin_rep(rep, 1);
    RepResult result = spec.service ? run_service(configs, workdir, cpus, rep, out)
                                    : run_campaigns(configs, out);
    setup_s.insert(setup_s.end(), result.setup_s.begin(), result.setup_s.end());
    cpus.pin_rep(rep, 1);  // the service widened the pin to two CPUs
    resume_ratios.push_back(resume_round(configs, checkpoints, spec.checkpoint_at, out));
    if (rep == 0) {
      tests = result.tests;
      best_ns = result.unit_ns;
      reference = std::move(result.witnesses);
    } else {
      if (result.witnesses != reference || result.unit_ns.size() != best_ns.size()) {
        out.fail(std::string(spec.name) +
                 ": a repetition with the same seed produced different outputs");
        break;
      }
      keep_min(best_ns, result.unit_ns);
    }
    last_ns = now_ns() - start;
  }

  std::uint64_t covered = 0;
  for (const Witness& w : reference) {
    covered += w.covered;
  }
  std::uint64_t total_ns = 0;
  for (const std::uint64_t ns : best_ns) {
    total_ns += ns;
  }
  out.set("tests_per_s", static_cast<double>(tests) / (static_cast<double>(total_ns) * 1e-9),
          "1/s");
  out.set("covered_points", static_cast<double>(covered), "points");
  out.set("resume_ratio", median(resume_ratios), "ratio");
  out.set("setup_s", median(setup_s), "s");
}

// --- the traced workload ----------------------------------------------------

struct TraceRep {
  LayerTotals layers;
  std::uint64_t traced_ns = 0;
  std::uint64_t untraced_ns = 0;
  WorkloadCounters counters;
  double capture_ms = 0, save_ms = 0, load_ms = 0, replay_ms = 0;
  std::uint64_t checkpoint_bytes = 0;
  double corpus_save_ms = 0;
  std::uint64_t corpus_entries = 0;
};

/// Checkpoint layer: capture, save, load and replay of one job's checkpoint.
void trace_checkpoint(const harness::CampaignConfig& config, std::uint64_t steps,
                      const fs::path& path, TraceRep& rep, Outcome& out) {
  ++out.attempted;
  harness::Campaign campaign(config);
  run_first(campaign, steps);
  std::uint64_t t = now_ns();
  const harness::Checkpoint checkpoint = harness::Checkpoint::capture(campaign);
  rep.capture_ms = seconds_since(t) * 1e3;
  t = now_ns();
  checkpoint.save(path.string());
  rep.save_ms = seconds_since(t) * 1e3;
  t = now_ns();
  const harness::Checkpoint loaded = harness::Checkpoint::load(path.string());
  rep.load_ms = seconds_since(t) * 1e3;
  t = now_ns();
  const std::unique_ptr<harness::Campaign> resumed = harness::resume_campaign(loaded);
  rep.replay_ms = seconds_since(t) * 1e3;
  rep.checkpoint_bytes = fs::file_size(path);
  if (resumed->tests_executed() != steps) {
    out.fail("traced resume landed at " + std::to_string(resumed->tests_executed()));
  }
}

void measure_traced(const WorkloadSpec& spec,
                    const std::vector<harness::CampaignConfig>& configs,
                    const fs::path& workdir, double seconds, std::size_t min_reps,
                    Outcome& out) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);

  // The service workload's untraced outputs come from the service itself;
  // each job's plain Campaign below must agree with them, and so must the
  // replica.
  const CpuRotation cpus;
  std::vector<Witness> service_witness;
  if (spec.service) {
    service_witness = run_service(configs, workdir, cpus, 0, out).witnesses;
  }

  std::vector<TraceRep> reps;
  std::uint64_t last_ns = 0;
  for (std::size_t r = 0; another_rep(r, min_reps, last_ns, deadline); ++r) {
    const std::uint64_t start = now_ns();
    // Untraced and traced passes of one repetition share a CPU, so
    // trace.overhead compares like with like.
    cpus.pin_rep(r, 1);
    TraceRep rep;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const harness::CampaignConfig& config = configs[i];
      ++out.attempted;
      Witness reference;
      {
        harness::Campaign campaign(config);
        const std::uint64_t t0 = now_ns();
        campaign.run();
        rep.untraced_ns += now_ns() - t0;
        reference = witness_of(campaign);
      }
      const LayerTotals before = rep.layers;
      const std::unique_ptr<Replica> replica = make_replica(config, rep.layers);
      rep.layers = before;  // spans of the replica's set-up are not step time
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t k = 0; k < config.max_tests; ++k) {
        replica->step();
      }
      rep.traced_ns += now_ns() - t0;
      const Witness traced = replica->witness();
      if (traced != reference) {
        out.fail(std::string(spec.name) + " job " + std::to_string(i) +
                 ": traced replica diverged from the untraced campaign");
      }
      if (spec.service) {
        const Witness& s = service_witness.at(i);
        if (s.tests != traced.tests || s.covered != traced.covered ||
            s.mismatches != traced.mismatches || s.corpus_image != traced.corpus_image) {
          out.fail(std::string(spec.name) + " job " + std::to_string(i) +
                   ": traced replica diverged from the service job");
        }
      }
      rep.counters += replica->counters();
      if (replica->corpus_entries() > 0) {
        const fs::path path = workdir / ("traced" + std::to_string(i) + ".corpus");
        const std::uint64_t t = now_ns();
        replica->save_corpus(path.string());
        rep.corpus_save_ms += seconds_since(t) * 1e3;
        rep.corpus_entries += replica->corpus_entries();
      }
    }
    // The last job: on rocket-service that is a reuse job, whose checkpoint
    // carries its corpus image.
    trace_checkpoint(configs.back(), spec.checkpoint_at, workdir / "traced.ckpt",
                     rep, out);
    if (!reps.empty() && !(rep.counters == reps.front().counters)) {
      out.fail(std::string(spec.name) +
               ": workload counters differ between repetitions of one seed");
    }
    reps.push_back(rep);
    last_ns = now_ns() - start;
  }

  auto per_rep = [&](auto&& fn) {
    std::vector<double> values;
    for (const TraceRep& rep : reps) {
      values.push_back(fn(rep));
    }
    return median(values);
  };
  const WorkloadCounters& c = reps.front().counters;
  const auto tests = static_cast<double>(c.tests);
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    out.set(std::string(kLayerNames[l]) + ".ns_per_test",
            per_rep([&](const TraceRep& r) {
              return static_cast<double>(r.layers.ns[l]) / tests;
            }),
            "ns");
  }
  for (const Layer layer : {Layer::kPipeline, Layer::kIss, Layer::kOracle, Layer::kFold}) {
    out.set(std::string(kLayerNames[static_cast<std::size_t>(layer)]) + ".share",
            per_rep([&](const TraceRep& r) {
              return static_cast<double>(r.layers[layer]) /
                     static_cast<double>(r.traced_ns);
            }),
            "ratio");
  }
  out.set("soc.pipeline.ns_per_cycle", per_rep([&](const TraceRep& r) {
            return static_cast<double>(r.layers[Layer::kPipeline]) /
                   static_cast<double>(c.dut_cycles);
          }),
          "ns");
  out.set("golden.iss.ns_per_commit", per_rep([&](const TraceRep& r) {
            return static_cast<double>(r.layers[Layer::kIss]) /
                   static_cast<double>(c.iss_commits);
          }),
          "ns");
  out.set("isa.decode.hit_rate",
          1.0 - static_cast<double>(c.decode_misses) /
                    static_cast<double>(c.decode_lookups),
          "ratio");
  out.set("harness.checkpoint.capture_ms",
          per_rep([](const TraceRep& r) { return r.capture_ms; }), "ms");
  out.set("harness.checkpoint.save_ms",
          per_rep([](const TraceRep& r) { return r.save_ms; }), "ms");
  out.set("harness.checkpoint.load_ms",
          per_rep([](const TraceRep& r) { return r.load_ms; }), "ms");
  out.set("harness.checkpoint.replay_ms",
          per_rep([](const TraceRep& r) { return r.replay_ms; }), "ms");
  out.set("harness.checkpoint.bytes",
          static_cast<double>(reps.front().checkpoint_bytes), "bytes");
  out.set("fuzz.corpus.save_ms",
          per_rep([](const TraceRep& r) { return r.corpus_save_ms; }), "ms");
  out.set("fuzz.corpus.entries", static_cast<double>(reps.front().corpus_entries),
          "entries");
  out.set("trace.overhead", per_rep([](const TraceRep& r) {
            return static_cast<double>(r.traced_ns) / static_cast<double>(r.untraced_ns);
          }),
          "ratio");
  out.set("trace.accounted", per_rep([](const TraceRep& r) {
            return static_cast<double>(r.layers.sum()) /
                   static_cast<double>(r.traced_ns);
          }),
          "ratio");
  out.set("commits_per_test", static_cast<double>(c.dut_commits) / tests,
          "commits/test");
  out.set("cycles_per_test", static_cast<double>(c.dut_cycles) / tests, "cycles/test");
  out.set("traps_per_test", static_cast<double>(c.dut_traps) / tests, "traps/test");
  out.set("mismatch_rate", static_cast<double>(c.mismatches) / tests, "ratio");
  out.set("new_cov_rate", static_cast<double>(c.new_coverage_tests) / tests, "ratio");
  out.set("arm_resets_per_ktest", static_cast<double>(c.arm_resets) * 1e3 / tests,
          "resets/ktest");
}

// --- output -----------------------------------------------------------------

std::string number(double v) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  return ec == std::errc{} ? std::string(buffer, ptr) : std::string("0");
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string result_line(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(out.attempted, 1));
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    line += first ? "" : ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + number(metric.value) +
            ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return line + "}}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Outcome run_workload(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                     bool trace, const std::vector<std::string>& extra,
                     const fs::path& workdir, std::size_t min_reps) {
  Outcome out;
  try {
    const std::vector<harness::CampaignConfig> configs = configs_of(spec, seed, extra);
    if (trace) {
      measure_traced(spec, configs, workdir, seconds, min_reps, out);
    } else {
      measure_untraced(spec, configs, workdir, seconds, min_reps, out);
      out.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
  } catch (const std::exception& e) {
    out.fail(std::string(spec.name) + ": " + e.what());
  }
  for (const std::string& error : out.errors) {
    std::cerr << "campaign_bench: " << error << '\n';
  }
  return out;
}

/// A few hundred tests per job, both modes, every workload: the witness
/// and repeat checks on a budget small enough for a unit test.
int smoke(const fs::path& workdir) {
  bool ok = true;
  for (WorkloadSpec spec : workloads(workdir)) {
    for (std::vector<std::string>& pairs : spec.jobs) {
      pairs.push_back("tests=300");
    }
    spec.checkpoint_at = 100;
    for (const bool trace : {false, true}) {
      const Outcome out = run_workload(spec, 7, 0.0, trace, {}, workdir, 2);
      std::cout << spec.name << (trace ? " traced: " : " untraced: ")
                << (out.correct() ? "ok" : "FAILED") << " (" << out.attempted
                << " attempted, " << out.metrics.size() << " metrics)\n";
      ok = ok && out.correct();
    }
  }
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "campaign_bench: " << why << "\n"
            << "usage: campaign_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [key=value ...]\n"
               "       campaign_bench --smoke --workdir DIR\n";
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view flag, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    usage("cannot parse " + std::string(flag) + " '" + std::string(value) + "'");
  }
  return out;
}

int run(int argc, char** argv) {
  std::optional<std::string> workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  bool smoke_mode = false;
  fs::path workdir;
  std::vector<std::string> extra;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        usage(std::string(arg) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = std::string(value());
    } else if (arg == "--seed") {
      seed = parse_u64(arg, value());
    } else if (arg == "--seconds") {
      seconds = parse_u64(arg, value());
    } else if (arg == "--trace") {
      trace = parse_u64(arg, value()) != 0;
    } else if (arg == "--workdir") {
      workdir = value();
    } else if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg.find('=') != std::string_view::npos && !arg.starts_with("--")) {
      extra.emplace_back(arg);
    } else {
      usage("unknown argument '" + std::string(arg) + "'");
    }
  }
  if (workdir.empty()) {
    usage("--workdir is required");
  }
  fs::create_directories(workdir);
  if (smoke_mode) {
    return smoke(workdir);
  }
  for (const WorkloadSpec& spec : workloads(workdir)) {
    if (workload && spec.name == *workload) {
      std::cout << "# " << spec.name << " seed " << seed << ", " << seconds
                << " s, trace " << (trace ? 1 : 0) << '\n';
      // Traced repetitions run every campaign twice, so two of them fill
      // the same time as the untraced run's four or more.
      const Outcome out = run_workload(spec, seed, static_cast<double>(seconds),
                                       trace, extra, workdir, trace ? 2 : 3);
      std::cout << result_line(out) << std::endl;
      return 0;
    }
  }
  std::string known;
  for (const WorkloadSpec& spec : workloads(workdir)) {
    known += ' ';
    known += spec.name;
  }
  usage("unknown workload '" + workload.value_or("") + "'; known:" + known);
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) { return campaign_bench::run(argc, argv); }
