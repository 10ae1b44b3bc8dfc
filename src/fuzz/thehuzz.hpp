#pragma once
// TheHuzz baseline fuzzer: the static scheduling policy MABFuzz improves
// on. One global FIFO working queue fed from a test *database*:
// interesting tests (those covering new points) enter the database and
// spawn a fixed burst of mutants; when the queue runs dry, TheHuzz cycles
// its database first-in-first-out and mutates the next entry — "selects
// the tests from its database in a static first-in-first-out method and
// does not prioritize selecting the tests with more potential first"
// (paper Sec. I). Fresh random seeds are generated only when the database
// has nothing to offer.

#include <deque>
#include <memory>

#include "fuzz/backend.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/pool.hpp"

namespace mabfuzz::fuzz {

class Corpus;         // fuzz/corpus.hpp
struct PolicyConfig;  // fuzz/registry.hpp

struct TheHuzzConfig {
  unsigned initial_seeds = 10;
  std::size_t pool_cap = 4096;
  std::size_t database_cap = 2048;
};

class TheHuzz final : public Fuzzer {
 public:
  /// Reads `policy.thehuzz`, the mutant burst shared with every policy and
  /// the optional cross-campaign corpus: every executed test is offered to
  /// it (the corpus's novelty gate decides admission). A null corpus is
  /// the original TheHuzz behaviour.
  TheHuzz(Backend& backend, const PolicyConfig& policy);

  StepResult step() override;
  [[nodiscard]] const coverage::Accumulator& accumulated() const override {
    return accumulated_;
  }
  [[nodiscard]] std::string_view name() const override { return "TheHuzz"; }

  [[nodiscard]] std::size_t database_size() const noexcept {
    return database_.size();
  }

  /// The pool, the database and its cursor, the coverage map and steps.
  void save_state(std::string& out) const override;
  void restore_state(common::ByteReader& in) override;

 private:
  void refill_from_database();

  Backend& backend_;
  TheHuzzConfig config_;
  unsigned mutants_per_interesting_;
  std::shared_ptr<Corpus> corpus_;
  TestPool pool_;
  std::deque<TestCase> database_;  // interesting tests, insertion order
  std::size_t db_cursor_ = 0;      // static FIFO replay position
  coverage::Accumulator accumulated_;
  TestOutcome outcome_;  // reused across steps (backend scratch swap)
  std::uint64_t steps_ = 0;
};

}  // namespace mabfuzz::fuzz
