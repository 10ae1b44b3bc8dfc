#include "isa/trap_sled.hpp"

#include <algorithm>
#include <array>
#include <numeric>

namespace mabfuzz::isa {

namespace {

using WordRecords = std::array<CommitRecord, TrapSled::kWordCommits>;

/// The five records of the sled word at `pc`: the trapped zero word, then
/// the stub of trap_handler_stub(), whose csrrs and addi write t6 with the
/// faulting pc and the pc after it.
WordRecords word_records(std::uint64_t pc) {
  static const WordRecords stub = [] {
    WordRecords records{};
    records[0].trapped = true;
    records[0].cause = static_cast<std::uint64_t>(TrapCause::kIllegalInstruction);
    const std::vector<Word>& handler = assembled_trap_handler();
    for (std::size_t i = 0; i < handler.size(); ++i) {
      records[i + 1].pc = kHandlerBase + 4 * i;
      records[i + 1].word = handler[i];
    }
    for (const std::size_t i : {1, 2}) {
      records[i].wrote_rd = true;
      records[i].rd = kTrapScratchReg;
    }
    return records;
  }();
  WordRecords records = stub;
  records[0].pc = pc;
  records[1].rd_value = pc;
  records[2].rd_value = pc + 4;
  return records;
}

}  // namespace

// Word k's records land in the lanes of word 0 shifted by 5k, which come
// round after lanes / gcd(lanes, 5) words.
TrapSled::TrapSled(unsigned lanes) noexcept
    : entry_words_(std::max<std::uint64_t>(
          2, lanes / std::gcd(std::max(lanes, 1u), static_cast<unsigned>(kWordCommits)))) {}

bool TrapSled::entered(const std::vector<CommitRecord>& commits,
                       std::uint64_t pc) noexcept {
  next_step_ = kNever;
  const std::uint64_t span = entry_words_ * kWordCommits;
  if (commits.size() < span) {
    return false;
  }
  auto at = commits.end() - static_cast<std::ptrdiff_t>(span);
  for (std::uint64_t word = entry_words_; word > 0; --word) {
    const WordRecords expected = word_records(pc - 4 * word);
    if (!std::equal(expected.begin(), expected.end(), at)) {
      return false;
    }
    at += kWordCommits;
  }
  return true;
}

void TrapSled::append(std::vector<CommitRecord>& commits, std::uint64_t pc,
                      std::uint64_t words) {
  // One resize and a copy per record: about twice as fast as inserting
  // each word's records.
  const std::size_t first = commits.size();
  commits.resize(first + words * kWordCommits);
  const WordRecords records = word_records(pc);
  CommitRecord* out = commits.data() + first;
  for (std::uint64_t k = 0; k < words; ++k, pc += 4, out += kWordCommits) {
    std::copy(records.begin(), records.end(), out);
    out[0].pc = pc;
    out[1].rd_value = pc;
    out[2].rd_value = pc + 4;
  }
}

}  // namespace mabfuzz::isa
