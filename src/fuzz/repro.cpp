#include "fuzz/repro.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "isa/disasm.hpp"

namespace mabfuzz::fuzz {

std::string serialize_test(const TestCase& test) {
  std::ostringstream out;
  out << "# mabfuzz test " << test.id << " seed " << test.seed_id << " gen "
      << test.generation << "\n";
  for (const isa::Word word : test.words) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", word);
    out << hex << "  # " << isa::disassemble_word(word) << "\n";
  }
  return out.str();
}

std::optional<TestCase> parse_test(const std::string& text) {
  TestCase test;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // Strip comments and whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      continue;
    }
    const auto last = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(first, last - first + 1);
    if (token.size() != 8 ||
        token.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos) {
      return std::nullopt;
    }
    test.words.push_back(
        static_cast<isa::Word>(std::stoul(token, nullptr, 16)));
  }
  if (test.words.empty()) {
    return std::nullopt;
  }
  return test;
}

MinimizeResult minimize_test(
    Backend& backend, const TestCase& test,
    const std::function<bool(const TestOutcome&)>& still_fails) {
  MinimizeResult result;
  result.test = test;

  auto check = [&](const TestCase& candidate) {
    ++result.executions;
    return still_fails(backend.run_test(candidate));
  };

  // Chunked deletion: try removing halves, then quarters, ... then singles.
  bool progress = true;
  while (progress && result.test.words.size() > 1) {
    progress = false;
    for (std::size_t chunk = result.test.words.size() / 2; chunk >= 1;
         chunk /= 2) {
      for (std::size_t start = 0; start + chunk <= result.test.words.size();) {
        TestCase candidate = result.test;
        candidate.words.erase(
            candidate.words.begin() + static_cast<std::ptrdiff_t>(start),
            candidate.words.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        if (!candidate.words.empty() && check(candidate)) {
          result.removed += static_cast<unsigned>(chunk);
          result.test = std::move(candidate);
          progress = true;
          // Do not advance: the next chunk shifted into `start`.
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) {
        break;
      }
    }
  }
  return result;
}

std::function<bool(const TestOutcome&)> mismatch_predicate(
    std::optional<soc::BugId> bug) {
  return [bug](const TestOutcome& outcome) {
    if (!outcome.mismatch) {
      return false;
    }
    if (!bug) {
      return true;
    }
    return std::any_of(outcome.dut.firings.begin(), outcome.dut.firings.end(),
                       [&](const soc::BugFiring& f) { return f.id == *bug; });
  };
}

}  // namespace mabfuzz::fuzz
