#include "replica.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/arm.hpp"
#include "core/reward.hpp"
#include "coverage/monitor.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/pool.hpp"
#include "golden/iss.hpp"
#include "isa/decoded_program.hpp"
#include "mab/bandit.hpp"
#include "mab/registry.hpp"
#include "soc/cores.hpp"
#include "soc/pipeline.hpp"

namespace campaign_bench {

namespace fuzz = mabfuzz::fuzz;
namespace harness = mabfuzz::harness;
namespace mab = mabfuzz::mab;

namespace {

std::string corpus_bytes(const fuzz::Corpus& corpus) {
  std::ostringstream os;
  corpus.save(os);
  return std::move(os).str();
}

}  // namespace

Witness witness_of(const harness::Campaign& campaign) {
  Witness w;
  w.tests = campaign.tests_executed();
  w.covered = campaign.covered();
  w.mismatches = campaign.mismatches();
  const auto words = campaign.fuzzer().accumulated().global().words();
  w.coverage_words.assign(words.begin(), words.end());
  campaign.fuzzer().append_state(w.fuzzer_state);
  if (campaign.corpus() != nullptr) {
    w.corpus_image = corpus_bytes(*campaign.corpus());
  }
  return w;
}

WorkloadCounters& WorkloadCounters::operator+=(const WorkloadCounters& other) noexcept {
  tests += other.tests;
  dut_commits += other.dut_commits;
  dut_cycles += other.dut_cycles;
  dut_traps += other.dut_traps;
  iss_commits += other.iss_commits;
  mismatches += other.mismatches;
  new_coverage_tests += other.new_coverage_tests;
  arm_resets += other.arm_resets;
  decode_lookups += other.decode_lookups;
  decode_misses += other.decode_misses;
  return *this;
}

namespace {

/// Backend::run_test split into its four layer calls.
class Executor {
 public:
  explicit Executor(const harness::CampaignConfig& config)
      : dut_(mabfuzz::soc::core_params(config.core, config.bugs)),
        iss_(mabfuzz::soc::golden_config_for(config.core)) {}

  /// Runs `test` on the DUT and the golden model and counts the outcome.
  void run(const fuzz::TestCase& test, LayerTotals& totals,
           WorkloadCounters& counters) {
    {
      const Span span(totals, Layer::kDecode);
      decoded_.build(test.words);
    }
    {
      const Span span(totals, Layer::kPipeline);
      dut_.run(test.words, decoded_, dut_out_);
    }
    {
      const Span span(totals, Layer::kIss);
      iss_.run(test.words, decoded_, iss_out_);
    }
    bool mismatch = false;
    {
      const Span span(totals, Layer::kOracle);
      mismatch = fuzz::compare(dut_out_.arch, iss_out_).has_value();
    }
    ++counters.tests;
    counters.dut_commits += dut_out_.arch.commits.size();
    counters.dut_cycles += dut_out_.cycles;
    counters.iss_commits += iss_out_.commits.size();
    for (const auto& record : dut_out_.arch.commits) {
      counters.dut_traps += record.trapped ? 1 : 0;
    }
    counters.mismatches += mismatch ? 1 : 0;
  }

  [[nodiscard]] const mabfuzz::coverage::Map& coverage() const noexcept {
    return dut_out_.test_coverage;
  }
  [[nodiscard]] const mabfuzz::isa::DecodedProgram& decoded() const noexcept {
    return decoded_;
  }

 private:
  mabfuzz::soc::Pipeline dut_;
  mabfuzz::golden::Iss iss_;
  mabfuzz::isa::DecodedProgram decoded_;
  mabfuzz::soc::RunOutput dut_out_;
  mabfuzz::isa::ArchResult iss_out_;
};

fuzz::BackendConfig backend_config_of(const harness::CampaignConfig& config) {
  if (config.policy.adaptive_operators || config.policy.adaptive_length) {
    throw std::invalid_argument(
        "traced run: adaptive-ops and adaptive-length are not replicated");
  }
  fuzz::BackendConfig backend;
  backend.core = config.core;
  backend.bugs = config.bugs;
  backend.rng_seed = config.rng_seed;
  backend.rng_run = config.run_index;
  return backend;
}

/// The store harness::Campaign materialises for corpus-in / corpus-out.
std::shared_ptr<fuzz::Corpus> shared_corpus_of(const harness::CampaignConfig& config,
                                               std::size_t universe) {
  if (!config.corpus_in.empty()) {
    return std::make_shared<fuzz::Corpus>(fuzz::Corpus::load(config.corpus_in));
  }
  if (!config.corpus_out.empty()) {
    return std::make_shared<fuzz::Corpus>(
        std::string(mabfuzz::soc::core_name(config.core)), universe,
        config.policy.corpus_cap);
  }
  return nullptr;
}

std::unique_ptr<mab::Bandit> bandit_of(const harness::CampaignConfig& config,
                                       const std::string& policy) {
  mab::BanditConfig bandit = config.policy.bandit;
  bandit.rng_seed =
      mabfuzz::common::derive_seed(config.rng_seed, config.run_index, "bandit");
  return mab::BanditRegistry::instance().create(policy, bandit);
}

/// State every policy replica shares: the backend, the executor, the
/// global coverage accumulator and the optional shared corpus.
class ReplicaBase : public Replica {
 public:
  ReplicaBase(const harness::CampaignConfig& config, LayerTotals& totals)
      : config_(config), totals_(totals), backend_(backend_config_of(config)),
        executor_(config), global_(backend_.coverage_universe()),
        corpus_(shared_corpus_of(config, backend_.coverage_universe())) {}

  [[nodiscard]] Witness witness() const override {
    Witness w;
    w.tests = steps_;
    w.covered = global_.covered();
    w.mismatches = counters_.mismatches;
    const auto words = global_.global().words();
    w.coverage_words.assign(words.begin(), words.end());
    append_state(w.fuzzer_state);
    if (corpus_ != nullptr) {
      w.corpus_image = corpus_bytes(*corpus_);
    }
    return w;
  }

  [[nodiscard]] WorkloadCounters counters() const override {
    WorkloadCounters out = counters_;
    out.decode_lookups = executor_.decoded().lookups();
    out.decode_misses = executor_.decoded().misses();
    return out;
  }

  bool save_corpus(const std::string& path) const override {
    if (corpus_ == nullptr) {
      return false;
    }
    corpus_->save(path);
    return true;
  }
  [[nodiscard]] std::size_t corpus_entries() const override {
    return corpus_ == nullptr ? 0 : corpus_->size();
  }

 protected:
  virtual void append_state(std::string& out) const { (void)out; }

  fuzz::TestCase make_seed() {
    const Span span(totals_, Layer::kMutation);
    return backend_.make_seed();
  }
  fuzz::TestCase make_mutant(const fuzz::TestCase& parent) {
    const Span span(totals_, Layer::kMutation);
    return backend_.make_mutant(parent);
  }

  /// Executes `test` and folds its coverage into the global map; returns
  /// the globally new point count.
  std::size_t execute(const fuzz::TestCase& test) {
    ++steps_;
    executor_.run(test, totals_, counters_);
    std::size_t fresh = 0;
    {
      const Span span(totals_, Layer::kFold);
      fresh = global_.absorb(executor_.coverage());
    }
    counters_.new_coverage_tests += fresh > 0 ? 1 : 0;
    return fresh;
  }

  /// Offers the executed test to the shared corpus, if any.
  bool offer(fuzz::Corpus* corpus, const fuzz::TestCase& test) {
    if (corpus == nullptr) {
      return false;
    }
    const Span span(totals_, Layer::kCorpus);
    return corpus->offer(test, executor_.coverage());
  }

  /// Reward normalisation shared by the bandit-driven policies.
  [[nodiscard]] double fed_reward(const mab::Bandit& bandit, double reward) const {
    if (!bandit.requires_normalized_reward()) {
      return reward;
    }
    const auto universe = static_cast<double>(backend_.coverage_universe());
    return universe > 0 ? reward / universe : 0.0;
  }

  harness::CampaignConfig config_;
  LayerTotals& totals_;
  fuzz::Backend backend_;
  Executor executor_;
  mabfuzz::coverage::Accumulator global_;
  std::shared_ptr<fuzz::Corpus> corpus_;
  WorkloadCounters counters_;
  std::uint64_t steps_ = 0;
};

/// fuzz::TheHuzz: one FIFO pool fed by a static FIFO test database.
class TheHuzzReplica final : public ReplicaBase {
 public:
  TheHuzzReplica(const harness::CampaignConfig& config, LayerTotals& totals)
      : ReplicaBase(config, totals), pool_(config.policy.thehuzz.pool_cap) {
    for (unsigned i = 0; i < config.policy.thehuzz.initial_seeds; ++i) {
      fuzz::TestCase seed = make_seed();
      const Span span(totals_, Layer::kSched);
      pool_.push(std::move(seed));
    }
  }

  void step() override {
    if (pool_.empty()) {
      refill_from_database();
    }
    fuzz::TestCase test;
    {
      const Span span(totals_, Layer::kSched);
      test = *pool_.pop();
    }
    const std::size_t fresh = execute(test);
    offer(corpus_.get(), test);
    if (fresh == 0) {
      return;
    }
    {
      const Span span(totals_, Layer::kSched);
      if (database_.size() >= config_.policy.thehuzz.database_cap &&
          !database_.empty()) {
        database_.pop_front();
        if (db_cursor_ > 0) {
          --db_cursor_;
        }
      }
      database_.push_back(test);
    }
    for (unsigned i = 0; i < config_.policy.mutants_per_interesting; ++i) {
      fuzz::TestCase mutant = make_mutant(test);
      const Span span(totals_, Layer::kSched);
      pool_.push(std::move(mutant));
    }
  }

 private:
  void refill_from_database() {
    if (database_.empty()) {
      fuzz::TestCase seed = make_seed();
      const Span span(totals_, Layer::kSched);
      pool_.push(std::move(seed));
      return;
    }
    const fuzz::TestCase& parent = database_[db_cursor_];
    db_cursor_ = (db_cursor_ + 1) % database_.size();
    const unsigned burst = std::max(1u, config_.policy.mutants_per_interesting);
    for (unsigned i = 0; i < burst; ++i) {
      fuzz::TestCase mutant = make_mutant(parent);
      const Span span(totals_, Layer::kSched);
      pool_.push(std::move(mutant));
    }
  }

  fuzz::TestPool pool_;
  std::deque<fuzz::TestCase> database_;
  std::size_t db_cursor_ = 0;
};

/// core::MabScheduler: one bandit arm per seed lineage, γ-window resets.
class MabReplica final : public ReplicaBase {
 public:
  MabReplica(const harness::CampaignConfig& config, LayerTotals& totals)
      : ReplicaBase(config, totals), bandit_(bandit_of(config, config.fuzzer)) {
    const std::size_t num_arms = config.policy.bandit.num_arms;
    arms_.reserve(num_arms);
    for (std::size_t a = 0; a < num_arms; ++a) {
      fuzz::TestCase seed = make_seed();
      const Span span(totals_, Layer::kSched);
      arms_.emplace_back(std::move(seed), backend_.coverage_universe(),
                         config.policy.gamma, config.policy.arm_pool_cap);
    }
  }

  void step() override {
    std::size_t selected = 0;
    {
      const Span span(totals_, Layer::kBandit);
      selected = bandit_->select();
    }
    mabfuzz::core::Arm& arm = arms_[selected];
    if (!arm.has_next()) {
      fuzz::TestCase mutant = make_mutant(arm.seed());
      const Span span(totals_, Layer::kSched);
      arm.push(std::move(mutant));
    }
    fuzz::TestCase test;
    {
      const Span span(totals_, Layer::kSched);
      test = arm.next();
    }

    ++steps_;
    executor_.run(test, totals_, counters_);
    mabfuzz::core::RewardBreakdown reward;
    std::size_t fresh = 0;
    {
      const Span span(totals_, Layer::kFold);
      reward = mabfuzz::core::compute_reward(reward_config_, executor_.coverage(),
                                             arm.coverage(), global_.global());
      fresh = global_.absorb(executor_.coverage());
      arm.coverage().merge(executor_.coverage());
    }
    counters_.new_coverage_tests += fresh > 0 ? 1 : 0;
    offer(corpus_.get(), test);

    if (reward.cov_local > 0) {
      for (unsigned i = 0; i < config_.policy.mutants_per_interesting; ++i) {
        fuzz::TestCase mutant = make_mutant(test);
        const Span span(totals_, Layer::kSched);
        arm.push(std::move(mutant));
      }
    }
    if (config_.policy.feed_operator_rewards && !test.mutation_ops.empty()) {
      const Span span(totals_, Layer::kMutation);
      const double op_reward = reward.cov_local > 0 ? 1.0 : 0.0;
      for (const std::uint8_t op : test.mutation_ops) {
        backend_.mutation_policy().feedback(static_cast<mabfuzz::mutation::Op>(op),
                                            op_reward);
      }
    }
    {
      const Span span(totals_, Layer::kBandit);
      bandit_->update(selected, fed_reward(*bandit_, reward.reward));
    }
    bool depleted = false;
    {
      const Span span(totals_, Layer::kSched);
      depleted = arm.record_gain(reward.cov_local);
    }
    if (depleted) {
      fuzz::TestCase seed = make_seed();
      {
        const Span span(totals_, Layer::kSched);
        arm.reset(std::move(seed));
      }
      {
        const Span span(totals_, Layer::kBandit);
        bandit_->reset_arm(selected);
      }
      ++counters_.arm_resets;
    }
  }

 private:
  void append_state(std::string& out) const override {
    mab::state_put_u64(out, steps_);
    mab::state_put_u64(out, counters_.arm_resets);
    bandit_->save_state(out);
  }

  std::unique_ptr<mab::Bandit> bandit_;
  mabfuzz::core::RewardConfig reward_config_{config_.policy.alpha};
  std::vector<mabfuzz::core::Arm> arms_;
};

/// fuzz::ReuseFuzzer: corpus entries as bandit arms, hill-climbing on
/// admitted mutants.
class ReuseReplica final : public ReplicaBase {
 public:
  ReuseReplica(const harness::CampaignConfig& config, LayerTotals& totals)
      : ReplicaBase(config, totals),
        store_(corpus_ != nullptr
                   ? corpus_
                   : std::make_shared<fuzz::Corpus>(
                         std::string(mabfuzz::soc::core_name(config.core)),
                         backend_.coverage_universe(), config.policy.corpus_cap)),
        bandit_(bandit_of(config, config.policy.reuse_bandit)) {
    std::vector<const fuzz::CorpusEntry*> ranked;
    for (const fuzz::CorpusEntry& entry : store_->entries()) {
      ranked.push_back(&entry);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const fuzz::CorpusEntry* a, const fuzz::CorpusEntry* b) {
                return a->novelty != b->novelty ? a->novelty > b->novelty
                                                : a->order < b->order;
              });
    const std::size_t num_arms = bandit_->num_arms();
    for (std::size_t a = 0; a < num_arms; ++a) {
      ArmState arm;
      arm.monitor = mabfuzz::coverage::GammaWindowMonitor(config.policy.gamma);
      arm.parent = a < ranked.size() ? ranked[a]->test : make_seed();
      arms_.push_back(std::move(arm));
    }
    for (std::size_t i = num_arms; i < ranked.size(); ++i) {
      reserve_.push_back(ranked[i]->test);
    }
  }

  void step() override {
    std::size_t selected = 0;
    {
      const Span span(totals_, Layer::kBandit);
      selected = bandit_->select();
    }
    ArmState& arm = arms_[selected];
    const bool is_replay = !arm.executed;
    fuzz::TestCase test;
    if (is_replay) {
      const Span span(totals_, Layer::kSched);
      arm.executed = true;
      test = arm.parent;
    } else {
      test = make_mutant(arm.parent);
    }

    const std::size_t fresh = execute(test);
    const bool admitted = offer(store_.get(), test);
    if (admitted && !is_replay) {
      const Span span(totals_, Layer::kSched);
      arm.parent = test;
    }
    {
      const Span span(totals_, Layer::kBandit);
      bandit_->update(selected, fed_reward(*bandit_, static_cast<double>(fresh)));
    }
    bool depleted = false;
    {
      const Span span(totals_, Layer::kSched);
      depleted = arm.monitor.record(fresh);
    }
    if (depleted) {
      fuzz::TestCase replacement;
      if (reserve_cursor_ < reserve_.size()) {
        const Span span(totals_, Layer::kSched);
        replacement = reserve_[reserve_cursor_++];
      } else {
        replacement = make_seed();
      }
      {
        const Span span(totals_, Layer::kSched);
        arm.parent = std::move(replacement);
        arm.executed = false;
        arm.monitor.reset();
      }
      {
        const Span span(totals_, Layer::kBandit);
        bandit_->reset_arm(selected);
      }
      ++counters_.arm_resets;
    }
  }

 private:
  struct ArmState {
    fuzz::TestCase parent;
    bool executed = false;
    mabfuzz::coverage::GammaWindowMonitor monitor;
  };

  void append_state(std::string& out) const override {
    mab::state_put_u64(out, steps_);
    mab::state_put_u64(out, counters_.arm_resets);
    mab::state_put_u64(out, reserve_cursor_);
    bandit_->save_state(out);
  }

  std::shared_ptr<fuzz::Corpus> store_;  // shared corpus or a private one
  std::unique_ptr<mab::Bandit> bandit_;
  std::vector<ArmState> arms_;
  std::vector<fuzz::TestCase> reserve_;
  std::size_t reserve_cursor_ = 0;
};

}  // namespace

std::unique_ptr<Replica> make_replica(const harness::CampaignConfig& config,
                                      LayerTotals& totals) {
  if (config.fuzzer == "thehuzz") {
    return std::make_unique<TheHuzzReplica>(config, totals);
  }
  if (config.fuzzer == "reuse") {
    return std::make_unique<ReuseReplica>(config, totals);
  }
  if (mab::BanditRegistry::instance().contains(config.fuzzer)) {
    return std::make_unique<MabReplica>(config, totals);
  }
  throw std::invalid_argument("traced run: no replica for fuzzer '" +
                              config.fuzzer + "'");
}

}  // namespace campaign_bench
