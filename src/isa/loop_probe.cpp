#include "isa/loop_probe.hpp"

#include <algorithm>

#include "isa/csr_defs.hpp"

namespace mabfuzz::isa {

void LoopProbe::begin_test(bool armed) noexcept {
  next_step_ = armed ? kFirstStep : kNever;
  confirming_ = false;
  start_ = 0;
  period_ = 0;
  failed_scans_ = 0;
  failed_checks_ = 0;
}

void LoopProbe::fail_scan(std::size_t step) noexcept {
  ++failed_scans_;
  next_step_ = failed_scans_ < kMaxFailedScans ? step + kRescanGap : kNever;
}

bool LoopProbe::scan(const std::vector<CommitRecord>& commits,
                     std::uint64_t pc) noexcept {
  const std::size_t n = commits.size();
  const std::size_t window = std::min(n, kMaxPeriod);
  std::size_t distance = 0;
  for (std::size_t d = 1; d <= window; ++d) {
    if (commits[n - d].pc == pc) {
      distance = d;
      break;
    }
  }
  if (distance == 0) {
    fail_scan(n);
    return false;
  }
  // The smallest multiple of the distance that is also a multiple of the
  // lane count: with an odd period on a 2-lane core, each instruction would
  // alternate lanes from one iteration to the next.
  std::size_t period = distance;
  while (period % lanes_ != 0) {
    period += distance;
  }
  const auto end = commits.end();
  const auto span = static_cast<std::ptrdiff_t>(period);
  if (period > kMaxPeriod || 2 * period > n ||
      !std::equal(end - span, end, end - 2 * span)) {
    fail_scan(n);
    return false;
  }
  start_ = n;
  period_ = period;
  confirming_ = true;
  next_step_ = n + period;
  return true;
}

bool LoopProbe::period_reads_counter(
    const std::vector<CommitRecord>& commits) const noexcept {
  for (std::size_t i = start_; i < start_ + period_; ++i) {
    const CommitRecord& record = commits[i];
    const Word word = record.word;
    // A SYSTEM-opcode word with a non-zero funct3 is a Zicsr instruction;
    // one that trapped left no architectural trace of what it read.
    const bool zicsr = (word & 0x7f) == 0b1110011 && ((word >> 12) & 0b111) != 0;
    if (record.trapped || !zicsr) {
      continue;
    }
    switch (static_cast<CsrAddr>(word >> 20)) {
      case csr::kMcycle:
      case csr::kMinstret:
      case csr::kCycle:
      case csr::kTime:
      case csr::kInstret:
        return true;
      default:
        break;
    }
  }
  return false;
}

void LoopProbe::reject() noexcept {
  confirming_ = false;
  ++failed_checks_;
  next_step_ = failed_checks_ < kMaxFailedChecks ? start_ + period_ + kRescanGap
                                                 : kNever;
}

std::uint64_t LoopProbe::replicate(std::vector<CommitRecord>& commits,
                                   std::uint64_t budget) {
  const std::size_t end = commits.size();  // start_ + period_
  const std::uint64_t copies = (budget - end) / period_;
  next_step_ = kNever;
  confirming_ = false;
  // Doubling copies: [start_, start_ + filled) is always whole periods, so
  // copying a prefix of it to its end keeps the trace periodic.
  const std::size_t total = static_cast<std::size_t>(copies + 1) * period_;
  commits.resize(start_ + total);
  for (std::size_t filled = period_; filled < total;) {
    const std::size_t chunk = std::min(filled, total - filled);
    std::copy_n(commits.begin() + static_cast<std::ptrdiff_t>(start_),
                static_cast<std::ptrdiff_t>(chunk),
                commits.begin() + static_cast<std::ptrdiff_t>(start_ + filled));
    filled += chunk;
  }
  return copies;
}

}  // namespace mabfuzz::isa
