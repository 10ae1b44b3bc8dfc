// Vulnerability hunt: enable one of the seven injected CVA6/Rocket bugs,
// race every registered policy to the first differential-testing
// detection, and dump the offending test with the mismatch description —
// the workflow a verification engineer runs when triaging a new RTL drop.
//
//   $ ./vuln_hunt [--bug V1..V7] [--tests N] [--seed S]

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/test_case.hpp"
#include "harness/campaign.hpp"

namespace {

using namespace mabfuzz;

std::optional<soc::BugId> parse_bug(const std::string& name) {
  for (const soc::BugInfo& info : soc::all_bugs()) {
    if (info.name == name) {
      return info.id;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::string bug_name = args.get_string("bug", "V6");
  const std::uint64_t max_tests = args.get_uint("tests", 5000);
  const std::uint64_t seed = args.get_uint("seed", 1);

  const auto bug = parse_bug(bug_name);
  if (!bug) {
    std::cerr << "unknown bug '" << bug_name << "' (expected V1..V7)\n";
    return 1;
  }
  const soc::BugInfo& info = soc::bug_info(*bug);
  const soc::CoreKind core = info.core == "rocket" ? soc::CoreKind::kRocket
                                                   : soc::CoreKind::kCva6;

  std::cout << "Hunting " << info.name << " (" << info.cwe << ") on "
            << soc::core_display_name(core) << ": " << info.description
            << "\n\n";

  common::Table table({"fuzzer", "tests to detection", "mismatch"});
  for (const std::string_view policy : harness::kAllPolicies) {
    harness::CampaignConfig config;
    config.core = core;
    config.bugs = soc::BugSet::single(*bug);
    config.fuzzer = std::string(policy);
    config.max_tests = max_tests;
    config.rng_seed = seed;

    harness::Campaign campaign(config);
    campaign.run_until(harness::StopCondition::bug_detected(*bug, max_tests));
    const bool found = campaign.bug_detected(*bug);
    table.add_row({std::string(campaign.fuzzer().name()),
                   found ? std::to_string(campaign.first_detection_test(*bug))
                         : "> " + std::to_string(max_tests),
                   found ? "golden-model divergence" : "not found within cap"});
  }
  table.render(std::cout);

  std::cout << "\nReproducing a detection with raw seeds to show the test:\n";
  fuzz::BackendConfig backend_config;
  backend_config.core = core;
  backend_config.bugs = soc::BugSet::single(*bug);
  backend_config.rng_seed = seed;
  fuzz::Backend backend(backend_config);
  // Drive the backend directly so we can hold on to the failing test case.
  const auto detects = fuzz::mismatch_predicate(*bug);
  for (std::uint64_t t = 0; t < max_tests; ++t) {
    const fuzz::TestCase test = backend.make_seed();
    const fuzz::TestOutcome& outcome = backend.run_test(test);
    if (outcome.mismatch && detects(outcome)) {
      std::cout << "\n" << fuzz::to_listing(test) << "\n  oracle: "
                << fuzz::describe(*outcome.mismatch) << "\n";

      // Triage: shrink the finding to the minimal reproducer.
      const fuzz::MinimizeResult minimized =
          fuzz::minimize_test(backend, test, detects);
      std::cout << "\nminimized reproducer (" << minimized.removed
                << " instructions removed in " << minimized.executions
                << " executions):\n"
                << fuzz::serialize_test(minimized.test);
      return 0;
    }
  }
  std::cout << "  (random seeds alone did not retrigger it within the cap;\n"
            << "   mutation-derived tests found it above)\n";
  return 0;
}
