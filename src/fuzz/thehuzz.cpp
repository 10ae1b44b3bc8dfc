#include "fuzz/thehuzz.hpp"

#include <algorithm>

#include "fuzz/corpus.hpp"
#include "fuzz/registry.hpp"

namespace mabfuzz::fuzz {

TheHuzz::TheHuzz(Backend& backend, const PolicyConfig& policy)
    : backend_(backend), config_(policy.thehuzz),
      mutants_per_interesting_(policy.mutants_per_interesting),
      corpus_(policy.corpus), pool_(config_.pool_cap),
      accumulated_(backend.coverage_universe()) {
  for (unsigned i = 0; i < config_.initial_seeds; ++i) {
    pool_.push(backend_.make_seed());
  }
}

void TheHuzz::refill_from_database() {
  if (database_.empty()) {
    pool_.push(backend_.make_seed());
    return;
  }
  // Static FIFO cycle over the database: mutate the next entry, regardless
  // of how it has performed — the exploitation-heavy decision MABFuzz's
  // dynamic selection replaces.
  const TestCase& parent = database_[db_cursor_];
  db_cursor_ = (db_cursor_ + 1) % database_.size();
  const unsigned burst = std::max(1u, mutants_per_interesting_);
  for (unsigned i = 0; i < burst; ++i) {
    pool_.push(backend_.make_mutant(parent));
  }
}

StepResult TheHuzz::step() {
  if (pool_.empty()) {
    refill_from_database();
  }
  const TestCase test = *pool_.pop();
  backend_.run_test(test, outcome_);

  StepResult result;
  result.test_index = ++steps_;
  result.mismatch = outcome_.mismatch;
  result.firings = outcome_.firings;
  result.new_global_points = accumulated_.absorb(outcome_.coverage);
  if (corpus_) {
    corpus_->offer(test, outcome_.coverage);
  }

  // Static policy: every test that covered anything new is "interesting";
  // it enters the database and contributes a burst of mutants.
  if (result.new_global_points > 0) {
    if (database_.size() >= config_.database_cap && !database_.empty()) {
      database_.pop_front();
      if (db_cursor_ > 0) {
        --db_cursor_;
      }
    }
    database_.push_back(test);
    for (unsigned i = 0; i < mutants_per_interesting_; ++i) {
      pool_.push(backend_.make_mutant(test));
    }
  }
  return result;
}

}  // namespace mabfuzz::fuzz
