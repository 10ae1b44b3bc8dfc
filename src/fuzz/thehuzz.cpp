#include "fuzz/thehuzz.hpp"

#include <algorithm>

#include "fuzz/corpus.hpp"

namespace mabfuzz::fuzz {

TheHuzz::TheHuzz(Backend& backend, const TheHuzzConfig& config)
    : backend_(backend), config_(config), pool_(config.pool_cap),
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
  const unsigned burst = std::max(1u, config_.mutants_per_interesting);
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
  if (config_.corpus) {
    config_.corpus->offer(test, outcome_.coverage);
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
    for (unsigned i = 0; i < config_.mutants_per_interesting; ++i) {
      pool_.push(backend_.make_mutant(test));
    }
  }
  return result;
}

}  // namespace mabfuzz::fuzz
