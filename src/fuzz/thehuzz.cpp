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

void TheHuzz::save_state(std::string& out) const {
  pool_.save_state(out);
  common::put_u64(out, database_.size());
  for (const TestCase& test : database_) {
    put_test(out, test);
  }
  common::put_u64(out, db_cursor_);
  accumulated_.save_state(out);
  common::put_u64(out, steps_);
}

void TheHuzz::restore_state(common::ByteReader& in) {
  pool_.restore_state(in);
  // step() evicts only from a non-empty database, so a cap of 0 holds one.
  const std::uint64_t size = in.count(
      "database size", std::max<std::size_t>(config_.database_cap, 1));
  database_.clear();
  for (std::uint64_t i = 0; i < size; ++i) {
    database_.push_back(read_test(in));
  }
  db_cursor_ = static_cast<std::size_t>(
      in.count("database cursor", std::max<std::uint64_t>(size, 1) - 1));
  accumulated_.restore_state(in);
  steps_ = in.u64("thehuzz steps");
}

}  // namespace mabfuzz::fuzz
