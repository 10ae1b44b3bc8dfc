// The release-style command-line driver: one binary that runs any
// registered scheduling policy on any core with any bug set, streams
// progress through the campaign observer, and ends with a coverage ranking
// and detection report — or, in trial-matrix mode, runs a whole
// (fuzzer × seed) experiment on worker lanes and emits aggregate
// statistics plus machine-readable artifacts. Everything the library can
// do, from flags.
//
//   $ ./mabfuzz_cli --core cva6 --fuzzer ucb --bugs V1,V5 --tests 5000
//                   --progress 1000 --csv
//   $ ./mabfuzz_cli --matrix thehuzz,ucb,exp3 --trials 5 --tests 2000
//                   --bugs none --json results.json
//
// Flags (campaign keys are accepted directly as --key value / --key=value):
//   --fuzzer NAME        scheduling policy (--list-fuzzers shows them;
//                        includes thehuzz, random, reuse, epsilon-greedy,
//                        ucb, exp3, thompson and any registered extension)
//   --core cva6|rocket|boom        (default cva6)
//   --bugs V1,..,V7|default|all|none   (default: the core's paper bug set)
//   --tests N  --seed S  --run R
//   --arms N --alpha A --gamma G --epsilon E --eta H
//   --adaptive-ops --adaptive-length     (Sec. V extensions)
//   --corpus-in PATH --corpus-out PATH   (persistent mabfuzz-corpus-v2
//                        store; pair with --fuzzer reuse for ReFuzz-style
//                        cross-campaign seed scheduling — --reuse-bandit
//                        and --corpus-cap tune it; docs/ARTIFACTS.md has
//                        the format. In matrix mode each trial writes a
//                        private <PATH>.shard-<trial> store and the engine
//                        merges the shards into PATH after the run)
//   --progress N   (status line every N tests; 0 = quiet)
//   --csv          (emit the per-sample coverage CSV at the end;
//                   in matrix mode: the per-trial CSV)
//   --ranking N    (show top-N uncovered groups; default 10)
//   --list-fuzzers (print registered policies and exit)
//   --help         (print every campaign key and exit)
//
// Trial-matrix mode (entered by any of the flags below):
//   --trials N     repetitions per fuzzer (seed range run 0..N-1)
//   --matrix A,B   comma-separated fuzzer axis (default: --fuzzer)
//   --workers W    worker threads (0 = hardware concurrency)
//   --target-bug V stop each trial at V's detection (Table I protocol)
//   --json PATH    write the mabfuzz-experiment-v1 artifact ("-" = stdout)
//
// Corpus toolbox (first positional argument "corpus"):
//   corpus info PATH...              print store summaries
//   corpus merge --out OUT IN IN...  fold stores (argument order) into OUT
//   corpus distill IN [--out OUT]    greedy set-cover; in place without --out
//
// Service mode (first positional argument "serve"):
//   serve [--socket PATH] [--service-workers N] [--slice N]
//         [--queue-cap N] [--tenant-cap N]
//         [--checkpoint-dir DIR] [--checkpoint-every N]
//   Runs a persistent harness::CampaignService. Commands arrive as lines
//   on the Unix domain socket (--socket) or on stdin; JSON events stream
//   to stdout (one object per line); command replies go to the issuing
//   connection (socket mode) or stderr (stdin mode). harness/serve.hpp
//   has the commands and replies. A line longer than 64 KiB gets one
//   error reply; socket mode then closes the connection, stdin mode
//   skips input through the next '\n'.
//   SIGTERM/SIGINT trigger a graceful stop: every unfinished job is
//   parked in a final checkpoint (when --checkpoint-dir is set), exit 0.

#include <algorithm>
#include <csignal>
#include <iostream>
#include <sstream>
#include <string_view>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "coverage/summary.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/registry.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/serve.hpp"
#include "mab/registry.hpp"

namespace {

using namespace mabfuzz;

int list_fuzzers() {
  std::cout << "registered fuzzer policies:\n";
  for (const std::string& name : fuzz::FuzzerRegistry::instance().names()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "registered bandit policies (each is also a fuzzer name: "
               "MABFuzz over that bandit):\n";
  for (const std::string& name : mab::BanditRegistry::instance().names()) {
    std::cout << "  " << name << "\n";
  }
  return 0;
}

int print_help(const std::string& program) {
  std::cout << "usage: " << program << " [--key value | --key=value]...\n\n"
            << "campaign keys:\n";
  for (const auto& [key, description] : harness::CampaignConfig::known_keys()) {
    std::cout << "  --" << key;
    for (std::size_t pad = key.size(); pad < 20; ++pad) {
      std::cout << ' ';
    }
    std::cout << description << "\n";
  }
  std::cout << "\ndriver flags: --progress N, --csv, --ranking N, "
               "--list-fuzzers, --help\n"
               "matrix flags: --trials N, --matrix A,B,.., --workers W, "
               "--target-bug Vn, --json PATH\n"
               "corpus verbs: corpus info PATH..., "
               "corpus merge --out OUT IN IN..., "
               "corpus distill IN [--out OUT]\n"
               "service mode: serve [--socket PATH] [--service-workers N] "
               "[--slice N] [--queue-cap N] [--tenant-cap N] "
               "[--checkpoint-dir DIR] [--checkpoint-every N]\n";
  return 0;
}

int corpus_usage(const std::string& program) {
  std::cerr << "usage: " << program << " corpus info PATH...\n"
            << "       " << program << " corpus merge --out OUT IN IN [IN...]\n"
            << "       " << program << " corpus distill IN [--out OUT]\n";
  return 1;
}

void print_corpus_summary(const std::string& path, const fuzz::Corpus& corpus) {
  std::cout << path << ": core " << corpus.core() << ", " << corpus.size()
            << "/" << corpus.max_entries() << " entries, " << corpus.covered()
            << "/" << corpus.universe() << " points accumulated, "
            << corpus.admitted() << " admitted / " << corpus.rejected()
            << " rejected / " << corpus.evicted() << " evicted\n";
}

int run_corpus_tool(const common::CliArgs& args) {
  const std::vector<std::string>& pos = args.positional();  // [0] == "corpus"
  if (pos.size() < 2) {
    return corpus_usage(args.program());
  }
  const std::string& verb = pos[1];
  const std::vector<std::string> paths(pos.begin() + 2, pos.end());

  if (verb == "info") {
    if (paths.empty()) {
      return corpus_usage(args.program());
    }
    for (const std::string& path : paths) {
      print_corpus_summary(path, fuzz::Corpus::load(path));
    }
    return 0;
  }
  if (verb == "merge") {
    const std::string out = args.get_string("out", "");
    if (out.empty() || paths.size() < 2) {
      return corpus_usage(args.program());
    }
    // Fold in argument order — with novelty recomputed per merge, the fold
    // order is part of the result's identity, so callers reproduce a store
    // byte-for-byte by passing the inputs in the same order.
    fuzz::Corpus merged = fuzz::Corpus::load(paths.front());
    for (std::size_t i = 1; i < paths.size(); ++i) {
      merged.merge(fuzz::Corpus::load(paths[i]));
    }
    merged.save(out);
    std::cout << "merged " << paths.size() << " stores (argument order)\n";
    print_corpus_summary(out, merged);
    return 0;
  }
  if (verb == "distill") {
    if (paths.size() != 1) {
      return corpus_usage(args.program());
    }
    // Without --out the store is distilled in place (the manifest sidecar
    // is rewritten with it).
    const std::string out = args.get_string("out", paths.front());
    fuzz::Corpus corpus = fuzz::Corpus::load(paths.front());
    const std::size_t removed = corpus.distill();
    corpus.save(out);
    std::cout << "distilled " << paths.front() << ": removed " << removed
              << " entries\n";
    print_corpus_summary(out, corpus);
    return 0;
  }
  std::cerr << "error: unknown corpus verb '" << verb << "'\n";
  return corpus_usage(args.program());
}

// --- serve mode -----------------------------------------------------------------

volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal_handler(int) { g_serve_stop = 1; }

int serve_socket_loop(harness::CampaignService& service,
                      const std::string& socket_path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "error: cannot create socket\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "error: socket path too long\n";
    ::close(listen_fd);
    return 1;
  }
  std::copy(socket_path.begin(), socket_path.end(), addr.sun_path);
  ::unlink(socket_path.c_str());  // stale socket from a crashed server
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 8) != 0) {
    std::cerr << "error: cannot bind/listen on '" << socket_path << "'\n";
    ::close(listen_fd);
    return 1;
  }

  struct Client {
    int fd;
    std::string buffer;
  };
  std::vector<Client> clients;
  bool shutdown = false;
  while (g_serve_stop == 0 && !shutdown) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    for (const Client& client : clients) {
      fds.push_back({client.fd, POLLIN, 0});
    }
    // The 100ms timeout bounds signal-reaction latency (the handler only
    // sets a flag; this loop is the one that acts on it).
    if (::poll(fds.data(), fds.size(), 100) < 0) {
      continue;  // EINTR: re-check g_serve_stop
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        clients.push_back({fd, {}});
      }
    }
    for (std::size_t i = 0; i < clients.size();) {
      // fds[0] is the listener; client i sits at fds[i + 1] — but the
      // clients vector may have grown after accept, so guard the index.
      const bool readable =
          i + 1 < fds.size() &&
          (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      bool closed = false;
      if (readable) {
        char chunk[4096];
        const ssize_t n = ::read(clients[i].fd, chunk, sizeof(chunk));
        if (n <= 0) {
          closed = true;
        } else {
          clients[i].buffer.append(chunk, static_cast<std::size_t>(n));
          for (const std::string& reply : harness::drain_command_buffer(
                   service, clients[i].buffer, shutdown)) {
            const std::string line = reply + "\n";
            // Best-effort reply; a vanished client is dropped next round.
            (void)!::write(clients[i].fd, line.data(), line.size());
          }
          if (clients[i].buffer.size() > harness::kMaxCommandLine) {
            // One error reply, then drop the connection.
            const std::string line = harness::line_too_long_reply() + "\n";
            (void)!::write(clients[i].fd, line.data(), line.size());
            closed = true;
          }
        }
      }
      if (closed) {
        ::close(clients[i].fd);
        clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (const Client& client : clients) {
    ::close(client.fd);
  }
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  return 0;
}

int serve_stdin_loop(harness::CampaignService& service) {
  std::string buffer;
  bool shutdown = false;
  bool discarding = false;  // dropping an over-long line through its '\n'
  while (g_serve_stop == 0 && !shutdown) {
    pollfd fd{STDIN_FILENO, POLLIN, 0};
    if (::poll(&fd, 1, 100) < 0) {
      continue;  // EINTR
    }
    if ((fd.revents & (POLLIN | POLLHUP)) == 0) {
      continue;
    }
    char chunk[4096];
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n <= 0) {
      break;  // EOF: run what was accepted, then stop below
    }
    std::string_view data(chunk, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t nl = data.find('\n');
      if (nl == std::string_view::npos) {
        continue;
      }
      data.remove_prefix(nl + 1);
      discarding = false;
    }
    buffer.append(data);
    for (const std::string& reply :
         harness::drain_command_buffer(service, buffer, shutdown)) {
      // stdout carries the JSON event stream; replies go to stderr so the
      // event log stays machine-parseable.
      std::cerr << reply << "\n";
    }
    if (buffer.size() > harness::kMaxCommandLine) {
      std::cerr << harness::line_too_long_reply() << "\n";
      buffer.clear();
      discarding = true;
    }
  }
  if (!shutdown && g_serve_stop == 0) {
    // EOF without an explicit shutdown: finish the accepted work first.
    service.drain();
  }
  return 0;
}

int run_serve(const common::CliArgs& args) {
  harness::ServiceConfig config;
  config.workers =
      static_cast<unsigned>(args.get_uint("service-workers", 2));
  config.slice = args.get_uint("slice", 256);
  config.queue_cap = args.get_uint("queue-cap", 64);
  config.per_tenant_cap = args.get_uint("tenant-cap", 8);
  config.checkpoint_dir = args.get_string("checkpoint-dir", "");
  config.checkpoint_every = args.get_uint("checkpoint-every", 0);
  const std::string socket_path = args.get_string("socket", "");

  harness::CampaignService service(std::move(config), &std::cout);
  service.start();
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  const int status = socket_path.empty()
                         ? serve_stdin_loop(service)
                         : serve_socket_loop(service, socket_path);
  // Graceful stop: lanes finish their slice, unfinished jobs are parked
  // in final checkpoints (with --checkpoint-dir), then a clean exit.
  service.stop();
  return status;
}

int run_matrix(const common::CliArgs& args, harness::CampaignConfig config) {
  harness::TrialMatrix matrix;
  matrix.base = std::move(config);
  matrix.trials = std::max<std::uint64_t>(1, args.get_uint("trials", 1));
  matrix.fuzzers = common::split(args.get_string("matrix", ""), ',');
  std::erase(matrix.fuzzers, "");  // tolerate "a,,b" / trailing commas

  harness::ExperimentOptions options;
  options.workers = static_cast<unsigned>(args.get_uint("workers", 0));
  const std::string target_bug = args.get_string("target-bug", "");
  if (!target_bug.empty()) {
    for (const soc::BugInfo& info : soc::all_bugs()) {
      if (info.name == target_bug) {
        options.target_bug = info.id;
      }
    }
    if (!options.target_bug) {
      std::cerr << "error: unknown --target-bug '" << target_bug
                << "' (expected V1..V7)\n";
      return 1;
    }
  }

  const harness::Experiment experiment(matrix, options);
  std::cout << "running " << experiment.specs().size() << " trials ("
            << (matrix.fuzzers.empty() ? 1 : matrix.fuzzers.size())
            << " fuzzers x " << matrix.trials << " runs, "
            << matrix.base.max_tests << " tests each)...\n";
  const harness::ExperimentResult result = experiment.run();

  std::cout << "\n=== aggregate (per cell, " << matrix.trials
            << " trials) ===\n";
  common::Table table({"fuzzer", "trials", "failed", "mean tests",
                       "median tests", "mean covered", "detections"});
  for (const harness::CellStats& cell : result.cells) {
    table.add_row({cell.fuzzer, std::to_string(cell.trials),
                   std::to_string(cell.failed_trials),
                   common::format_double(cell.tests.mean, 1),
                   common::format_double(cell.tests.median, 1),
                   common::format_double(cell.covered.mean, 1),
                   std::to_string(cell.detected_trials)});
  }
  table.render(std::cout);

  // A baseline in the axis => Table I-style pairwise medians for free.
  if (result.find_cell("thehuzz") != nullptr && result.cells.size() > 1) {
    const harness::SpeedupReport report =
        harness::speedup_report(result, "thehuzz");
    std::cout << "\nspeedup vs thehuzz (median / mean tests-to-stop):\n";
    for (const harness::SpeedupReport::Row& row : report.rows) {
      std::cout << "  " << row.fuzzer << ": "
                << common::format_speedup(row.median_speedup) << " / "
                << common::format_speedup(row.mean_speedup) << "\n";
    }
  }
  if (result.failed_trials != 0) {
    std::cout << "\nWARNING: " << result.failed_trials
              << " trials failed; see the artifact's error fields\n";
    harness::report_failures(std::cout, result);
  }

  // Sharded corpus federation: the engine already merged every successful
  // trial's shard into the requested store(s); name them for the user.
  std::vector<std::string> merged_corpora;
  for (const harness::TrialSpec& spec : experiment.specs()) {
    if (spec.corpus_merge_out.empty() ||
        result.trials[spec.index].failed ||
        std::find(merged_corpora.begin(), merged_corpora.end(),
                  spec.corpus_merge_out) != merged_corpora.end()) {
      continue;
    }
    merged_corpora.push_back(spec.corpus_merge_out);
  }
  for (const std::string& path : merged_corpora) {
    std::cout << "\nwrote merged corpus " << path << " (+ manifest " << path
              << ".json)\n";
  }

  if (args.get_bool("csv", false)) {
    std::cout << "\n--- per-trial CSV ---\n";
    harness::write_trials_csv(std::cout, result);
  }
  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    if (json_path == "-") {
      harness::write_experiment_json(std::cout, result);
    } else {
      std::ostringstream json;
      harness::write_experiment_json(json, result);
      common::write_file_atomic(json_path, json.str());
      std::cout << "\nwrote " << json_path << "\n";
    }
  }
  // Any lost trial degrades the statistics — scripted consumers must see
  // a non-zero exit, not just the WARNING above.
  return result.failed_trials != 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const common::CliArgs args(argc, argv);
    if (!args.positional().empty() && args.positional().front() == "corpus") {
      return run_corpus_tool(args);
    }
    if (!args.positional().empty() && args.positional().front() == "serve") {
      return run_serve(args);
    }
    if (args.has("list-fuzzers")) {
      return list_fuzzers();
    }
    if (args.has("help")) {
      return print_help(args.program());
    }

    // This binary's defaults go in as the parse base, so core-relative
    // values ("--bugs default" without "--core") resolve against them.
    harness::CampaignConfig defaults;
    defaults.fuzzer = "ucb";
    defaults.core = soc::CoreKind::kCva6;
    defaults.max_tests = 3000;
    harness::CampaignConfig config =
        harness::CampaignConfig::from_args(args, defaults);
    if (!args.has("bugs")) {
      config.bugs = soc::default_bugs(config.core);
    }
    const std::uint64_t progress = args.get_uint("progress", 1000);
    const std::uint64_t ranking = args.get_uint("ranking", 10);
    // --progress drives the snapshot cadence unless the user pinned it.
    if (!args.has("snapshot-every")) {
      config.snapshot_every = progress != 0 ? progress : config.max_tests;
    }

    // Any matrix-only flag routes to the engine (an explicit --trials 1 or
    // a lone --target-bug runs a 1-trial experiment, not a silent fallthrough).
    if (args.has("trials") || args.has("matrix") || args.has("json") ||
        args.has("target-bug") || args.has("workers")) {
      return run_matrix(args, std::move(config));
    }

    harness::Campaign campaign(config);
    harness::ProgressObserver reporter(std::cout);
    if (progress != 0) {
      campaign.add_observer(reporter);
    }

    std::cout << "fuzzing " << soc::core_display_name(config.core) << " with "
              << campaign.fuzzer().name() << " for " << config.max_tests
              << " tests...\n";
    campaign.run();

    std::cout << "\n=== summary ===\n"
              << "covered           : " << campaign.covered() << " / "
              << campaign.coverage_universe() << " ("
              << common::format_double(
                     campaign.fuzzer().accumulated().fraction() * 100, 2)
              << "%)\n"
              << "mismatching tests : " << campaign.mismatches();
    std::uint64_t first_detection = 0;
    for (const soc::BugInfo& info : soc::all_bugs()) {
      const std::uint64_t at = campaign.first_detection_test(info.id);
      if (at != 0 && (first_detection == 0 || at < first_detection)) {
        first_detection = at;
      }
    }
    if (first_detection != 0) {
      std::cout << " (first at #" << first_detection << ")";
    }
    std::cout << "\ndetected bugs     : " << campaign.detected_bug_count()
              << " / " << campaign.enabled_bug_count() << " enabled\n";
    if (campaign.corpus() != nullptr) {
      const fuzz::Corpus& corpus = *campaign.corpus();
      std::cout << "corpus            : " << corpus.size() << " entries ("
                << campaign.corpus_loaded_entries() << " loaded, "
                << corpus.admitted() << " admitted, " << corpus.evicted()
                << " evicted), " << corpus.covered() << " accumulated points\n";
    }
    std::cout << "\n";

    const auto groups = coverage::summarize_groups(
        campaign.backend().dut().registry(),
        campaign.fuzzer().accumulated().global());
    common::Table table({"uncovered frontier", "covered", "total", "%"});
    for (std::size_t i = 0; i < std::min<std::size_t>(ranking, groups.size());
         ++i) {
      table.add_row({groups[i].group, std::to_string(groups[i].covered),
                     std::to_string(groups[i].total),
                     common::format_double(groups[i].fraction() * 100, 1) + "%"});
    }
    table.render(std::cout);

    if (args.get_bool("csv", false)) {
      std::cout << "\ntests,covered\n";
      for (const harness::BatchSnapshot& snapshot : campaign.snapshots()) {
        std::cout << snapshot.tests_executed << "," << snapshot.covered << "\n";
      }
    }
    if (campaign.save_corpus()) {
      std::cout << "\nwrote corpus " << config.corpus_out << " (+ manifest "
                << config.corpus_out << ".json)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
