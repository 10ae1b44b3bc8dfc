// CampaignService tests: admission control (duplicate names, job names
// that are not plain file names, artifact prefixes that cannot be
// written, queue and per-tenant caps, bad configs), FIFO completion
// order, pause / resume / cancel at slice boundaries, interrupt-and-resume
// byte-identity of every artifact, one final checkpoint per shutdown
// however often stop() is called, byte-identity across lane counts, and
// the serve line protocol (every verb's reply, the submit errors, line
// splitting and the over-long line) without a socket.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/checkpoint.hpp"
#include "harness/serve.hpp"
#include "harness/service.hpp"

namespace mabfuzz::harness {
namespace {

CampaignConfig tiny(std::uint64_t tests = 300, std::uint64_t seed = 5) {
  CampaignConfig config;
  config.fuzzer = "ucb";
  config.core = soc::CoreKind::kRocket;
  config.max_tests = tests;
  config.rng_seed = seed;
  config.snapshot_every = 50;
  return config;
}

JobSpec job(std::string name, CampaignConfig config,
            std::string tenant = "t") {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.name = std::move(name);
  spec.config = std::move(config);
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return std::move(out).str();
}

/// Spins (1ms steps, ~10s cap) until `ready()`; fails the test on timeout.
template <typename Fn>
void wait_until(Fn&& ready, const char* what) {
  for (int i = 0; i < 10'000; ++i) {
    if (ready()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "timed out waiting for " << what;
}

// --- admission ------------------------------------------------------------------

TEST(ServiceAdmissionTest, RejectsDuplicateJobNames) {
  CampaignService service(ServiceConfig{});
  service.submit(job("dup", tiny(50)));
  EXPECT_THROW(service.submit(job("dup", tiny(50))), std::invalid_argument);
}

TEST(ServiceAdmissionTest, RejectsJobNamesThatAreNotPlainFileNames) {
  // A job name becomes <checkpoint_dir>/<name>.ckpt, so anything that is
  // not a short plain file name is refused before a campaign is built.
  CampaignService service(ServiceConfig{});
  for (const std::string& name :
       {std::string("../escaped"), std::string("a/b"), std::string("."),
        std::string(".."), std::string(129, 'a'), std::string()}) {
    EXPECT_THROW(service.submit(job(name, tiny(50))), std::invalid_argument)
        << "'" << name << "'";
  }
  service.submit(job("job0-epsilon-greedy", tiny(50)));
  service.submit(job("smoke.v2_1", tiny(50)));
  service.submit(job(std::string(128, 'a'), tiny(50)));

  // A name read back from a checkpoint file passes the same rule.
  Campaign campaign(tiny(50));
  Checkpoint checkpoint = Checkpoint::capture(campaign);
  checkpoint.job_name = "../x";
  const std::string path = testing::TempDir() + "escaping-name.ckpt";
  checkpoint.save(path);
  EXPECT_THROW(service.resume_from_checkpoint(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ServiceAdmissionTest, RejectsUnwritableArtifactPrefix) {
  // Checked at admission: a missing directory must not cost the job's
  // whole budget to discover.
  CampaignService service(ServiceConfig{});
  JobSpec spec = job("a", tiny(50));
  spec.artifact_out = testing::TempDir() + "no-such-dir/a";
  try {
    service.submit(std::move(spec));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("artifact-out"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(service.jobs().empty());

  // A checkpoint carrying such a prefix is refused the same way.
  Campaign campaign(tiny(50));
  Checkpoint checkpoint = Checkpoint::capture(campaign);
  checkpoint.job_name = "b";
  checkpoint.artifact_out = testing::TempDir() + "no-such-dir/b";
  const std::string path = testing::TempDir() + "unwritable-prefix.ckpt";
  checkpoint.save(path);
  EXPECT_THROW(service.resume_from_checkpoint(path), std::invalid_argument);
  EXPECT_TRUE(service.jobs().empty());
  std::remove(path.c_str());
}

TEST(ServiceAdmissionTest, EnforcesQueueCapWithBackpressure) {
  ServiceConfig config;
  config.queue_cap = 2;
  CampaignService service(config);
  service.submit(job("a", tiny(50)));
  service.submit(job("b", tiny(50)));
  try {
    service.submit(job("c", tiny(50)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("queue is full"), std::string::npos);
  }
}

TEST(ServiceAdmissionTest, EnforcesPerTenantCap) {
  ServiceConfig config;
  config.per_tenant_cap = 1;
  CampaignService service(config);
  service.submit(job("a1", tiny(50), "alpha"));
  // A different tenant still has room...
  service.submit(job("b1", tiny(50), "beta"));
  // ...but tenant alpha is at its cap.
  try {
    service.submit(job("a2", tiny(50), "alpha"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
  }
}

TEST(ServiceAdmissionTest, RejectsUnknownFuzzerAtSubmitTime) {
  CampaignConfig config = tiny(50);
  config.fuzzer = "no-such-policy";
  CampaignService service(ServiceConfig{});
  try {
    service.submit(job("bad", std::move(config)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-policy"), std::string::npos);
    EXPECT_NE(message.find("ucb"), std::string::npos);  // lists known names
  }
}

// --- scheduling -----------------------------------------------------------------

TEST(ServiceSchedulingTest, SingleWorkerCompletesJobsInSubmissionOrder) {
  std::ostringstream events;
  ServiceConfig config;
  config.workers = 1;
  config.slice = 1'000;  // each job finishes within one slice
  CampaignService service(config, &events);
  service.submit(job("first", tiny(80, 1)));
  service.submit(job("second", tiny(80, 2)));
  service.submit(job("third", tiny(80, 3)));
  service.start();
  service.drain();
  service.stop();

  std::vector<std::string> done_order;
  std::istringstream lines(events.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');  // every event line is one JSON object
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"event\":\"done\"") == std::string::npos) {
      continue;
    }
    for (const char* name : {"first", "second", "third"}) {
      if (line.find('"' + std::string(name) + '"') != std::string::npos) {
        done_order.push_back(name);
      }
    }
  }
  EXPECT_EQ(done_order,
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(ServiceSchedulingTest, StatusTracksProgressAndTerminalStates) {
  CampaignService service(ServiceConfig{});
  service.submit(job("watched", tiny(100)));
  ASSERT_TRUE(service.status("watched").has_value());
  EXPECT_EQ(service.status("watched")->state, JobState::kQueued);
  EXPECT_FALSE(service.status("missing").has_value());
  service.start();
  service.drain();
  const std::optional<JobStatus> status = service.status("watched");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(status->tests_executed, 100u);
  EXPECT_GT(status->covered, 0u);
  service.stop();
}

TEST(ServiceControlTest, PauseParksAndResumeContinues) {
  ServiceConfig config;
  config.workers = 1;
  config.slice = 25;
  CampaignService service(config);
  service.submit(job("pausable", tiny(200)));
  // Requested before start(): the job parks at its first slice boundary,
  // having executed nothing.
  EXPECT_TRUE(service.pause("pausable"));
  service.start();
  wait_until(
      [&] { return service.status("pausable")->state == JobState::kPaused; },
      "job to park");
  EXPECT_EQ(service.status("pausable")->tests_executed, 0u);
  // A drain is not blocked by a paused job.
  service.drain();

  EXPECT_TRUE(service.resume("pausable"));
  wait_until(
      [&] { return service.status("pausable")->state == JobState::kDone; },
      "job to finish");
  EXPECT_EQ(service.status("pausable")->tests_executed, 200u);
  // Terminal jobs reject further control.
  EXPECT_FALSE(service.pause("pausable"));
  EXPECT_FALSE(service.resume("pausable"));
  EXPECT_FALSE(service.cancel("pausable"));
  service.stop();
}

TEST(ServiceControlTest, CancelStopsAJobEarly) {
  ServiceConfig config;
  config.workers = 1;
  config.slice = 10;
  CampaignService service(config);
  service.submit(job("doomed", tiny(100'000)));  // far too long to finish
  service.start();
  wait_until(
      [&] { return service.status("doomed")->tests_executed >= 10; },
      "job to make progress");
  EXPECT_TRUE(service.cancel("doomed"));
  wait_until(
      [&] { return service.status("doomed")->state == JobState::kCancelled; },
      "job to cancel");
  service.drain();
  EXPECT_LT(service.status("doomed")->tests_executed, 100'000u);
  service.stop();
}

TEST(ServiceControlTest, CancelAppliesToPausedJobsImmediately) {
  CampaignService service(ServiceConfig{});
  service.submit(job("parked", tiny(100)));
  EXPECT_TRUE(service.pause("parked"));
  service.start();
  wait_until(
      [&] { return service.status("parked")->state == JobState::kPaused; },
      "job to park");
  EXPECT_TRUE(service.cancel("parked"));
  EXPECT_EQ(service.status("parked")->state, JobState::kCancelled);
  service.stop();
}

// --- interrupt + resume byte-identity -------------------------------------------

/// The acceptance property: a campaign interrupted into a checkpoint and
/// resumed in a fresh service produces byte-identical artifacts (JSON,
/// CSV, corpus store) to an uninterrupted run.
TEST(ServiceResumeTest, InterruptAndResumeIsByteIdentical) {
  const std::string dir = testing::TempDir();
  const std::string artifact = dir + "svc-artifact";
  const std::string corpus = dir + "svc-corpus.bin";

  CampaignConfig campaign = tiny(900, 21);
  campaign.corpus_out = corpus;

  ServiceConfig config;
  config.workers = 2;
  config.slice = 50;
  config.checkpoint_dir = dir;

  // Uninterrupted reference.
  {
    CampaignService service(config);
    JobSpec spec = job("ref", campaign);
    spec.artifact_out = artifact;
    service.submit(std::move(spec));
    service.start();
    service.drain();
    service.stop();
  }
  const std::string ref_json = read_file(artifact + ".json");
  const std::string ref_csv = read_file(artifact + ".csv");
  const std::string ref_corpus = read_file(corpus);
  ASSERT_FALSE(ref_json.empty());
  ASSERT_FALSE(ref_corpus.empty());
  std::remove((artifact + ".json").c_str());
  std::remove((artifact + ".csv").c_str());
  std::remove(corpus.c_str());

  // Interrupted run: park the job mid-campaign, stop the service (the
  // final checkpoint is written), resume in a brand-new service.
  {
    CampaignService service(config);
    JobSpec spec = job("victim", campaign);
    spec.artifact_out = artifact;
    service.submit(std::move(spec));
    service.start();
    wait_until(
        [&] { return service.status("victim")->tests_executed >= 100; },
        "mid-run progress");
    ASSERT_TRUE(service.pause("victim"));
    wait_until(
        [&] {
          return service.status("victim")->state == JobState::kPaused;
        },
        "job to park");
    ASSERT_LT(service.status("victim")->tests_executed, 900u);
    service.stop();
  }
  const std::string checkpoint = dir + "victim.ckpt";
  ASSERT_FALSE(read_file(checkpoint).empty());
  {
    CampaignService service(config);
    EXPECT_EQ(service.resume_from_checkpoint(checkpoint), "victim");
    service.start();
    service.drain();
    service.stop();
    EXPECT_EQ(service.status("victim")->state, JobState::kDone);
    EXPECT_EQ(service.status("victim")->tests_executed, 900u);
  }
  EXPECT_EQ(read_file(artifact + ".json"), ref_json) << "resume diverged";
  EXPECT_EQ(read_file(artifact + ".csv"), ref_csv);
  EXPECT_EQ(read_file(corpus), ref_corpus);
  // The settled job's checkpoint is removed.
  EXPECT_TRUE(read_file(checkpoint).empty());
  std::remove((artifact + ".json").c_str());
  std::remove((artifact + ".csv").c_str());
  std::remove(corpus.c_str());
}

// --- shutdown -------------------------------------------------------------------

/// stop() is idempotent: the destructor's second stop() must not write
/// the unfinished job's final checkpoint again.
TEST(ServiceShutdownTest, StopThenDestructionWritesOneFinalCheckpoint) {
  const std::string dir = testing::TempDir();
  const std::string path = dir + "stop-once.ckpt";
  std::ostringstream events;
  auto checkpoint_events = [&] {
    const std::string log = events.str();
    std::size_t count = 0;
    for (std::size_t at = log.find("\"event\":\"checkpoint\"");
         at != std::string::npos;
         at = log.find("\"event\":\"checkpoint\"", at + 1)) {
      ++count;
    }
    return count;
  };
  {
    ServiceConfig config;
    config.workers = 1;
    config.checkpoint_dir = dir;
    CampaignService service(config, &events);
    service.submit(job("stop-once", tiny(1'000'000)));
    service.start();
    wait_until(
        [&] { return service.status("stop-once")->tests_executed > 0; },
        "mid-run progress");
    service.stop();
    EXPECT_EQ(checkpoint_events(), 1u);
    ASSERT_FALSE(read_file(path).empty());
    // Any further write would recreate the file.
    std::remove(path.c_str());
  }
  EXPECT_EQ(checkpoint_events(), 1u);
  EXPECT_TRUE(read_file(path).empty())
      << "destruction wrote the final checkpoint a second time";
}

// --- lane count -----------------------------------------------------------------

/// A lane only decides which thread runs a slice: three concurrent
/// services write the same bytes with one lane each as with three.
TEST(ServiceLaneTest, ArtifactsByteIdenticalAcrossLaneCounts) {
  const std::string dir = testing::TempDir();
  auto run_fleet = [&](unsigned workers, const std::string& tag) {
    std::vector<std::unique_ptr<CampaignService>> services;
    for (int s = 0; s < 3; ++s) {
      ServiceConfig config;
      config.workers = workers;
      config.slice = 40;
      services.push_back(std::make_unique<CampaignService>(config));
    }
    for (int s = 0; s < 3; ++s) {
      for (int j = 0; j < 2; ++j) {
        CampaignConfig campaign = tiny(200, 100 + 10 * s + j);
        JobSpec spec = job("job-" + std::to_string(j), campaign);
        spec.artifact_out = dir + tag + "-s" + std::to_string(s) + "-j" +
                            std::to_string(j);
        services[s]->submit(std::move(spec));
      }
      services[s]->start();
    }
    for (const auto& service : services) {
      service->drain();
      service->stop();
    }
  };

  run_fleet(1, "one-lane");
  run_fleet(3, "three-lanes");

  for (int s = 0; s < 3; ++s) {
    for (int j = 0; j < 2; ++j) {
      const std::string suffix =
          "-s" + std::to_string(s) + "-j" + std::to_string(j);
      for (const char* ext : {".json", ".csv"}) {
        const std::string one = dir + "one-lane" + suffix + ext;
        const std::string three = dir + "three-lanes" + suffix + ext;
        const std::string expected = read_file(one);
        ASSERT_FALSE(expected.empty()) << one;
        EXPECT_EQ(read_file(three), expected) << suffix << ext;
        std::remove(one.c_str());
        std::remove(three.c_str());
      }
    }
  }
}

// --- serve line protocol --------------------------------------------------------

std::string reply_to(CampaignService& service, std::string_view line) {
  return handle_serve_line(service, line).line;
}

TEST(ServeProtocolTest, EveryVerbGetsItsReply) {
  // Never started: jobs stay queued and drain() returns at once.
  CampaignService service(ServiceConfig{});
  EXPECT_EQ(reply_to(service, "status"), "ok");
  EXPECT_EQ(reply_to(service, "submit job=a fuzzer=ucb core=rocket tests=50"),
            "ok submitted a");
  EXPECT_EQ(reply_to(service, "submit  tenant=t job=b artifact-out=" +
                                  testing::TempDir() + "b tests=40 "),
            "ok submitted b");
  EXPECT_EQ(reply_to(service, "status"), "ok a:queued:0/50 b:queued:0/40");
  EXPECT_EQ(reply_to(service, "pause a"), "ok pause requested");
  EXPECT_EQ(reply_to(service, "resume a"), "ok resume requested");
  EXPECT_EQ(reply_to(service, "cancel b"), "ok cancel requested");
  EXPECT_EQ(reply_to(service, "pause nobody"),
            "error: job 'nobody' is unknown or already terminal");
  for (const std::string verb : {"pause", "resume", "cancel"}) {
    EXPECT_EQ(reply_to(service, verb), "error: usage: " + verb + " NAME");
    EXPECT_EQ(reply_to(service, verb + " a b"),
              "error: usage: " + verb + " NAME");
  }
  EXPECT_EQ(reply_to(service, "drain"), "ok drained");

  Campaign campaign(tiny(50));
  Checkpoint checkpoint = Checkpoint::capture(campaign);
  checkpoint.job_name = "c";
  const std::string path = testing::TempDir() + "serve-verbs.ckpt";
  checkpoint.save(path);
  EXPECT_EQ(reply_to(service, "resume-checkpoint " + path), "ok resumed c");
  EXPECT_EQ(reply_to(service, "resume-checkpoint"),
            "error: usage: resume-checkpoint PATH");
  EXPECT_EQ(reply_to(service, "resume-checkpoint " + path + "-missing")
                .rfind("error: cannot read '" + path + "-missing'", 0),
            0u);
  std::remove(path.c_str());

  const ServeReply status = handle_serve_line(service, "status");
  EXPECT_EQ(status.line, "ok a:queued:0/50 b:queued:0/40 c:queued:0/50");
  EXPECT_FALSE(status.shutdown);
  const ServeReply bye = handle_serve_line(service, "shutdown");
  EXPECT_EQ(bye.line, "ok shutting down");
  EXPECT_TRUE(bye.shutdown);
}

TEST(ServeProtocolTest, SubmitErrorsAreReplies) {
  CampaignService service(ServiceConfig{});
  EXPECT_EQ(reply_to(service, "submit fuzzer=ucb"),
            "error: submit requires job=<name>");
  EXPECT_EQ(reply_to(service, "submit job=a ucb"),
            "error: expected key=value, got 'ucb'");
  EXPECT_EQ(reply_to(service, "submit job=a arms=0"),
            "error: campaign key 'arms': must be at least 1");
  EXPECT_EQ(reply_to(service, "submit job=a mutants=4294967296"),
            "error: campaign key 'mutants': 4294967296 exceeds the cap 1024");
  std::string sixty_five_lengths = "12";
  for (int i = 1; i < 65; ++i) {
    sixty_five_lengths += ",12";
  }
  // (line, what its error reply must name)
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"submit job=a no-such-knob=1", "no-such-knob"},
      {"submit job=a fuzzer=no-such-policy", "no-such-policy"},
      {"submit job=../a", "job name"},
      {"submit job=a artifact-out=" + testing::TempDir() + "no-such-dir/a",
       "artifact-out"},
      {"submit job=a arms=20000", "'arms': 20000 exceeds the cap 1024"},
      {"submit job=a mutants=2000000", "'mutants': 2000000 exceeds the cap 1024"},
      {"submit job=a initial-seeds=4097",
       "'initial-seeds': 4097 exceeds the cap 4096"},
      {"submit job=a length-choices=12,65536",
       "'length-choices': 65536 exceeds the cap 4096"},
      {"submit job=a length-choices=" + sixty_five_lengths,
       "'length-choices': 65 lengths exceed the cap 64"},
      {"submit job=a length-choices=0,20", "'length-choices': length 0"},
      {"submit job=a length-choices=20,20", "'length-choices': length 20"},
      {"submit job=a eta=nan", "'eta': nan is not a rate in [0, 1]"},
      {"submit job=a alpha=-1e300", "'alpha': -1e300 is not a rate"},
      {"submit job=a tests=1048577 snapshot-every=1", "'snapshot-every'"},
  };
  for (const auto& [line, named] : refused) {
    const std::string reply = reply_to(service, line);
    EXPECT_EQ(reply.rfind("error: ", 0), 0u) << line << " -> " << reply;
    EXPECT_NE(reply.find(named), std::string::npos) << reply;
  }
  EXPECT_TRUE(service.jobs().empty());
  EXPECT_EQ(reply_to(service, "submit job=a tests=5"), "ok submitted a");
  EXPECT_EQ(reply_to(service, "submit job=a tests=5"),
            "error: service: job name 'a' already exists");
  EXPECT_EQ(service.jobs().size(), 1u);
}

TEST(ServeProtocolTest, UnknownAndEmptyCommands) {
  CampaignService service(ServiceConfig{});
  EXPECT_EQ(reply_to(service, "frobnicate now"),
            "error: unknown command 'frobnicate' (submit, resume-checkpoint, "
            "pause, resume, cancel, status, drain, shutdown)");
  EXPECT_EQ(reply_to(service, ""), "error: empty command");
  EXPECT_EQ(reply_to(service, "   "), "error: empty command");
}

TEST(ServeProtocolTest, LineDrainStripsCarriageReturnsAndSkipsEmptyLines) {
  CampaignService service(ServiceConfig{});
  std::string buffer = "status\r\n\n\r\nsubmit job=a tests=5\nsta";
  bool shutdown = false;
  EXPECT_EQ(drain_command_buffer(service, buffer, shutdown),
            (std::vector<std::string>{"ok", "ok submitted a"}));
  EXPECT_EQ(buffer, "sta");  // the unterminated tail waits for its newline
  EXPECT_FALSE(shutdown);
  buffer += "tus\nshutdown\nstatus\n";
  EXPECT_EQ(drain_command_buffer(service, buffer, shutdown),
            (std::vector<std::string>{"ok a:queued:0/5", "ok shutting down",
                                      "ok a:queued:0/5"}));
  EXPECT_TRUE(shutdown);
  EXPECT_TRUE(buffer.empty());
}

TEST(ServeProtocolTest, OverLongLineIsLeftToTheTransport) {
  EXPECT_EQ(kMaxCommandLine, 64u * 1024u);
  EXPECT_EQ(line_too_long_reply(),
            "error: command line longer than 65536 bytes");
  // The drain answers nothing for an unterminated line; the transport
  // sees the buffer exceed the cap and sends the one over-long reply.
  CampaignService service(ServiceConfig{});
  std::string buffer(kMaxCommandLine + 1, 'x');
  bool shutdown = false;
  EXPECT_TRUE(drain_command_buffer(service, buffer, shutdown).empty());
  EXPECT_EQ(buffer.size(), kMaxCommandLine + 1);
}

}  // namespace
}  // namespace mabfuzz::harness
