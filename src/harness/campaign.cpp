#include "harness/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "core/adaptive.hpp"
#include "core/scheduler.hpp"
#include "fuzz/corpus.hpp"
#include "mab/registry.hpp"
#include "mutation/operators.hpp"

namespace mabfuzz::harness {

// --- CampaignConfig: key=value parsing ------------------------------------------

namespace {

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw std::invalid_argument("campaign key '" + std::string(key) +
                                "': cannot parse '" + std::string(value) +
                                "' as an integer");
  }
  return out;
}

// Caps on the count keys whose memory or time grows with the value, so no
// outside config (a serve client's included) can ask for unbounded work.
// Each sits far above every bench and paper setting.
constexpr std::uint64_t kMaxArms = 1024;     // largest use: 20 (ablation)
constexpr std::uint64_t kMaxMutants = 1024;  // paper: 5
// TheHuzz keeps only the last pool_cap initial seeds.
constexpr std::uint64_t kMaxInitialSeeds = fuzz::TheHuzzConfig{}.pool_cap;
// A 4096-instruction seed image ends far below isa::kScratchBase.
constexpr std::uint64_t kMaxSeedLength = 4096;
constexpr std::size_t kMaxLengthChoices = 64;

/// A value above `cap` is refused, naming the key and the cap.
std::uint64_t parse_capped(std::string_view key, std::string_view value,
                           std::uint64_t cap) {
  const std::uint64_t out = parse_u64(key, value);
  if (out > cap) {
    throw std::invalid_argument("campaign key '" + std::string(key) + "': " +
                                std::string(value) + " exceeds the cap " +
                                std::to_string(cap));
  }
  return out;
}

double parse_f64(std::string_view key, std::string_view value) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(std::string(value), &pos);
    if (pos != value.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("campaign key '" + std::string(key) +
                                "': cannot parse '" + std::string(value) +
                                "' as a number");
  }
}

/// A probability or mixing weight: refused unless finite and in [0, 1].
double parse_rate(std::string_view key, std::string_view value) {
  const double out = parse_f64(key, value);
  if (!(out >= 0.0 && out <= 1.0)) {  // also refuses NaN
    throw std::invalid_argument("campaign key '" + std::string(key) + "': " +
                                std::string(value) +
                                " is not a rate in [0, 1]");
  }
  return out;
}

bool parse_flag(std::string_view key, std::string_view value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  throw std::invalid_argument("campaign key '" + std::string(key) +
                              "': expected a boolean, got '" + std::string(value) +
                              "'");
}

soc::CoreKind parse_core(std::string_view value) {
  for (const soc::CoreKind kind : soc::kAllCores) {
    if (value == soc::core_name(kind)) {
      return kind;
    }
  }
  std::string message = "unknown core '";
  message.append(value);
  message += "'; known cores:";
  for (const soc::CoreKind kind : soc::kAllCores) {
    message += ' ';
    message.append(soc::core_name(kind));
  }
  throw std::invalid_argument(message);
}

soc::BugSet parse_bug_set(std::string_view value, soc::CoreKind core) {
  if (value == "default") {
    return soc::default_bugs(core);
  }
  if (value == "none") {
    return soc::BugSet::none();
  }
  if (value == "all") {
    return soc::BugSet::all();
  }
  soc::BugSet bugs;
  for (const std::string& token : common::split(value, ',')) {
    bool known = false;
    for (const soc::BugInfo& info : soc::all_bugs()) {
      if (info.name == token) {
        bugs.enable(info.id);
        known = true;
      }
    }
    if (!known) {
      throw std::invalid_argument("unknown bug '" + token +
                                  "' (expected V1..V7, 'default', 'all' or 'none')");
    }
  }
  return bugs;
}

std::vector<unsigned> parse_lengths(std::string_view key, std::string_view value) {
  // Counted before splitting: split() keeps interior empty tokens and
  // drops a trailing one.
  const auto entries = static_cast<std::size_t>(
      std::count(value.begin(), value.end(), ',') + (value.ends_with(',') ? 0 : 1));
  if (entries > kMaxLengthChoices) {
    throw std::invalid_argument("campaign key '" + std::string(key) + "': " +
                                std::to_string(entries) +
                                " lengths exceed the cap " +
                                std::to_string(kMaxLengthChoices));
  }
  // Every length must be a distinct arm the policy can credit: 0 reads as
  // "no feedback due" and a repeat is never credited (the first match
  // takes the feedback), so either arm keeps its infinite UCB bonus.
  std::vector<unsigned> out;
  for (const std::string& token : common::split(value, ',')) {
    const auto length =
        static_cast<unsigned>(parse_capped(key, token, kMaxSeedLength));
    if (length == 0 || std::find(out.begin(), out.end(), length) != out.end()) {
      throw std::invalid_argument(
          "campaign key '" + std::string(key) + "': length " +
          std::to_string(length) +
          (length == 0 ? " is not a seed length (must be at least 1)"
                       : " is listed twice (lengths must be distinct)"));
    }
    out.push_back(length);
  }
  if (out.empty()) {
    throw std::invalid_argument("campaign key '" + std::string(key) +
                                "': expected a comma-separated length list");
  }
  return out;
}

// --- canonical value formatting (to_pairs) --------------------------------------

/// Shortest round-trip decimal form (std::to_chars): parse_f64 of the
/// output reproduces the exact double, and equal doubles format
/// identically — both required for the checkpoint config round trip.
std::string format_exact(double v) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  return ec == std::errc{} ? std::string(buffer, ptr) : std::string("0");
}

std::string format_bug_set(const CampaignConfig& config) {
  std::string out;
  for (const soc::BugInfo& info : soc::all_bugs()) {
    if (!config.bugs.enabled(info.id)) {
      continue;
    }
    if (!out.empty()) {
      out += ',';
    }
    out.append(info.name);
  }
  // The explicit name list (never "default") keeps the value independent
  // of the core key it rides alongside.
  return out.empty() ? "none" : out;
}

std::string format_lengths(const std::vector<unsigned>& lengths) {
  std::string out;
  for (const unsigned length : lengths) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(length);
  }
  return out;
}

struct ConfigKey {
  std::string_view key;
  std::string_view description;
  void (*apply)(CampaignConfig&, std::string_view);
  /// Canonical value for to_pairs(); parse(format(c)) == c per key.
  std::string (*format)(const CampaignConfig&);
};

// Declaration order is application order for from_args(): `core` precedes
// `bugs` so "bugs=default" resolves against the requested core.
constexpr ConfigKey kConfigKeys[] = {
    {"fuzzer", "scheduling policy: a fuzzer or bandit name (--list-fuzzers)",
     [](CampaignConfig& c, std::string_view v) { c.fuzzer = std::string(v); },
     [](const CampaignConfig& c) { return c.fuzzer; }},
    {"core", "DUT core: cva6 | rocket | boom",
     [](CampaignConfig& c, std::string_view v) { c.core = parse_core(v); },
     [](const CampaignConfig& c) { return std::string(soc::core_name(c.core)); }},
    {"bugs", "injected bug set: default | none | all | V1,..,V7",
     [](CampaignConfig& c, std::string_view v) {
       c.bugs = parse_bug_set(v, c.core);
     },
     [](const CampaignConfig& c) { return format_bug_set(c); }},
    {"tests", "test budget for run()",
     [](CampaignConfig& c, std::string_view v) {
       c.max_tests = parse_u64("tests", v);
     },
     [](const CampaignConfig& c) { return std::to_string(c.max_tests); }},
    {"seed", "root RNG seed",
     [](CampaignConfig& c, std::string_view v) {
       c.rng_seed = parse_u64("seed", v);
     },
     [](const CampaignConfig& c) { return std::to_string(c.rng_seed); }},
    {"run", "repetition index (decorrelates repetitions)",
     [](CampaignConfig& c, std::string_view v) {
       c.run_index = parse_u64("run", v);
     },
     [](const CampaignConfig& c) { return std::to_string(c.run_index); }},
    {"snapshot-every", "coverage snapshot cadence; 0 = auto (tests/100)",
     [](CampaignConfig& c, std::string_view v) {
       c.snapshot_every = parse_u64("snapshot-every", v);
     },
     [](const CampaignConfig& c) { return std::to_string(c.snapshot_every); }},
    {"arms", "number of bandit arms, 1..1024 (paper: 10)",
     [](CampaignConfig& c, std::string_view v) {
       const std::uint64_t arms = parse_capped("arms", v, kMaxArms);
       if (arms == 0) {
         throw std::invalid_argument("campaign key 'arms': must be at least 1");
       }
       c.policy.bandit.num_arms = arms;
     },
     [](const CampaignConfig& c) { return std::to_string(c.policy.bandit.num_arms); }},
    {"epsilon", "epsilon-greedy exploration rate in [0, 1] (paper: 0.1)",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.bandit.epsilon = parse_rate("epsilon", v);
     },
     [](const CampaignConfig& c) { return format_exact(c.policy.bandit.epsilon); }},
    {"eta", "EXP3 learning rate in [0, 1] (paper: 0.1)",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.bandit.eta = parse_rate("eta", v);
     },
     [](const CampaignConfig& c) { return format_exact(c.policy.bandit.eta); }},
    {"alpha", "reward mix R = a|covL| + (1-a)|covG|, a in [0, 1] (paper: 0.25)",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.alpha = parse_rate("alpha", v);
     },
     [](const CampaignConfig& c) { return format_exact(c.policy.alpha); }},
    {"gamma", "depletion reset threshold; 0 disables (paper: 3)",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.gamma = parse_u64("gamma", v);
     },
     [](const CampaignConfig& c) { return std::to_string(c.policy.gamma); }},
    {"mutants", "mutant burst per interesting test, <= 1024 (paper: 5)",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.mutants_per_interesting =
           static_cast<unsigned>(parse_capped("mutants", v, kMaxMutants));
     },
     [](const CampaignConfig& c) { return std::to_string(c.policy.mutants_per_interesting); }},
    {"pool-cap", "per-arm test pool capacity",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.arm_pool_cap = parse_u64("pool-cap", v);
     },
     [](const CampaignConfig& c) { return std::to_string(c.policy.arm_pool_cap); }},
    {"initial-seeds", "TheHuzz initial seed count, <= 4096",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.thehuzz.initial_seeds = static_cast<unsigned>(
           parse_capped("initial-seeds", v, kMaxInitialSeeds));
     },
     [](const CampaignConfig& c) { return std::to_string(c.policy.thehuzz.initial_seeds); }},
    {"feed-op-rewards", "feed operator-level rewards to the mutation policy",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.feed_operator_rewards = parse_flag("feed-op-rewards", v);
     },
     [](const CampaignConfig& c) { return std::string(c.policy.feed_operator_rewards ? "true" : "false"); }},
    {"adaptive-ops", "Sec. V: MAB mutation-operator selection",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.adaptive_operators = parse_flag("adaptive-ops", v);
     },
     [](const CampaignConfig& c) { return std::string(c.policy.adaptive_operators ? "true" : "false"); }},
    {"adaptive-op-epsilon", "operator-bandit exploration rate in [0, 1]",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.adaptive_op_epsilon = parse_rate("adaptive-op-epsilon", v);
     },
     [](const CampaignConfig& c) { return format_exact(c.policy.adaptive_op_epsilon); }},
    {"adaptive-length", "Sec. V: MAB seed-length selection",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.adaptive_length = parse_flag("adaptive-length", v);
     },
     [](const CampaignConfig& c) { return std::string(c.policy.adaptive_length ? "true" : "false"); }},
    {"length-choices", "adaptive-length candidate seed lengths, <= 64 distinct of 1..4096",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.length_choices = parse_lengths("length-choices", v);
     },
     [](const CampaignConfig& c) { return format_lengths(c.policy.length_choices); }},
    {"corpus-in", "load a mabfuzz-corpus-v2 store before the run",
     [](CampaignConfig& c, std::string_view v) { c.corpus_in = std::string(v); },
     [](const CampaignConfig& c) { return c.corpus_in; }},
    {"corpus-out", "save the campaign's corpus here after the run",
     [](CampaignConfig& c, std::string_view v) {
       c.corpus_out = std::string(v);
     },
     [](const CampaignConfig& c) { return c.corpus_out; }},
    {"corpus-cap", "fresh-corpus entry cap (full: evict lowest novelty)",
     [](CampaignConfig& c, std::string_view v) {
       const std::uint64_t cap = parse_u64("corpus-cap", v);
       if (cap > fuzz::Corpus::kMaxEntries) {
         throw std::invalid_argument(
             "campaign key 'corpus-cap': " + std::to_string(cap) +
             " exceeds the bound " + std::to_string(fuzz::Corpus::kMaxEntries) +
             " (a store with a larger cap cannot be loaded)");
       }
       c.policy.corpus_cap = cap;
     },
     [](const CampaignConfig& c) { return std::to_string(c.policy.corpus_cap); }},
    {"reuse-bandit", "bandit policy for the reuse fuzzer's seed selection",
     [](CampaignConfig& c, std::string_view v) {
       c.policy.reuse_bandit = std::string(v);
     },
     [](const CampaignConfig& c) { return c.policy.reuse_bandit; }},
};

}  // namespace

void CampaignConfig::set(std::string_view key, std::string_view value) {
  for (const ConfigKey& entry : kConfigKeys) {
    if (entry.key == key) {
      entry.apply(*this, value);
      return;
    }
  }
  std::string message = "unknown campaign key '";
  message.append(key);
  message += "'; known keys:";
  for (const ConfigKey& entry : kConfigKeys) {
    message += ' ';
    message.append(entry.key);
  }
  throw std::invalid_argument(message);
}

CampaignConfig CampaignConfig::from_pairs(std::span<const std::string> pairs,
                                          const CampaignConfig& base) {
  CampaignConfig config = base;
  // Two passes: `bugs` last, so its core-relative "default" spec sees the
  // core requested anywhere in the same pair list.
  for (const bool bugs_pass : {false, true}) {
    for (const std::string& pair : pairs) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("expected key=value, got '" + pair + "'");
      }
      const auto key = std::string_view(pair).substr(0, eq);
      if ((key == "bugs") == bugs_pass) {
        config.set(key, std::string_view(pair).substr(eq + 1));
      }
    }
  }
  return config;
}

CampaignConfig CampaignConfig::from_pairs(std::span<const std::string> pairs) {
  return from_pairs(pairs, CampaignConfig{});
}

CampaignConfig CampaignConfig::from_args(const common::CliArgs& args,
                                         const CampaignConfig& base) {
  CampaignConfig config = base;
  for (const ConfigKey& entry : kConfigKeys) {
    if (const auto value = args.get(entry.key)) {
      config.set(entry.key, *value);
    }
  }
  return config;
}

CampaignConfig CampaignConfig::from_args(const common::CliArgs& args) {
  return from_args(args, CampaignConfig{});
}

void validate_output_directory(const std::string& path, std::string_view what) {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(path).parent_path();
  // A bare filename writes to the working directory.
  const fs::path dir = parent.empty() ? fs::path(".") : parent;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::invalid_argument(std::string(what) + " '" + path +
                                "': parent directory '" + dir.string() +
                                "' does not exist or is not a directory");
  }
  if (::access(dir.c_str(), W_OK) != 0) {
    throw std::invalid_argument(std::string(what) + " '" + path +
                                "': parent directory '" + dir.string() +
                                "' is not writable");
  }
}

std::vector<std::pair<std::string, std::string>> CampaignConfig::known_keys() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const ConfigKey& entry : kConfigKeys) {
    out.emplace_back(std::string(entry.key), std::string(entry.description));
  }
  return out;
}

std::vector<std::string> CampaignConfig::to_pairs() const {
  std::vector<std::string> out;
  out.reserve(std::size(kConfigKeys));
  for (const ConfigKey& entry : kConfigKeys) {
    std::string pair(entry.key);
    pair += '=';
    pair += entry.format(*this);
    out.push_back(std::move(pair));
  }
  return out;
}

// --- StopReason -----------------------------------------------------------------

std::string_view stop_reason_name(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kMaxTests: return "max-tests";
    case StopReason::kBugDetected: return "bug-detected";
  }
  return "?";
}

// --- Campaign -------------------------------------------------------------------

namespace {

/// A fuzzer-registry name builds that policy; any other bandit-registry
/// name is MABFuzz over that bandit (the bandit is the scheduler's only
/// variable, paper Sec. III). A miss lists both registries' names as one
/// sorted list, the form of a single registry's miss message.
std::unique_ptr<fuzz::Fuzzer> make_fuzzer(const std::string& name,
                                          fuzz::Backend& backend,
                                          const fuzz::PolicyConfig& policy) {
  const auto& fuzzers = fuzz::FuzzerRegistry::instance();
  if (fuzzers.contains(name)) {
    return fuzzers.create(name, backend, policy);
  }
  const auto& bandits = mab::BanditRegistry::instance();
  if (bandits.contains(name)) {
    return std::make_unique<core::MabScheduler>(
        backend, bandits.create(name, policy.bandit), policy);
  }
  std::vector<std::string> known = fuzzers.names();
  for (std::string& bandit : bandits.names()) {
    known.push_back(std::move(bandit));
  }
  std::sort(known.begin(), known.end());
  std::string message =
      "unknown fuzzer policy '" + name + "'; known fuzzer policies:";
  for (const std::string& known_name : known) {
    message += " " + known_name;
  }
  throw std::invalid_argument(message);
}

}  // namespace

Campaign::Campaign(const CampaignConfig& config) : config_(config) {
  // A checkpoint holds at most kMaxSnapshots snapshots, so a run that
  // would take more could never be resumed: refuse it before it starts.
  const std::uint64_t every = config_.effective_snapshot_every();
  const std::uint64_t snapshots =
      config_.max_tests / every + (config_.max_tests % every != 0 ? 1 : 0);
  if (snapshots > kMaxSnapshots) {
    throw std::invalid_argument(
        "campaign keys 'tests' and 'snapshot-every': " +
        std::to_string(config_.max_tests) + " tests at one snapshot every " +
        std::to_string(every) + " take " + std::to_string(snapshots) +
        " snapshots, above the bound " + std::to_string(kMaxSnapshots) +
        " a checkpoint can hold");
  }

  fuzz::BackendConfig backend_config;
  backend_config.core = config_.core;
  backend_config.bugs = config_.bugs;
  backend_config.rng_seed = config_.rng_seed;
  backend_config.rng_run = config_.run_index;
  if (config_.policy.adaptive_operators) {
    mab::BanditConfig op_bandit;
    op_bandit.num_arms = mutation::kNumOps;
    op_bandit.epsilon = config_.policy.adaptive_op_epsilon;
    op_bandit.rng_seed =
        common::derive_seed(config_.rng_seed, config_.run_index, "op-bandit");
    backend_config.operator_policy = std::make_shared<core::MabOperatorPolicy>(
        mab::make_bandit("epsilon-greedy", op_bandit));
  }
  backend_ = std::make_unique<fuzz::Backend>(backend_config);

  // Corpus persistence: either key materialises one shared store the
  // selected policy feeds; corpus_in additionally validates that the
  // stored tests were produced on this campaign's DUT configuration —
  // replaying a CVA6 corpus on Rocket would silently measure nothing.
  // corpus_out is validated up front: save_corpus() runs at end-of-run,
  // and a misspelled path must not cost an entire campaign to discover.
  if (!config_.corpus_out.empty()) {
    validate_output_directory(config_.corpus_out, "corpus-out");
  }
  if (!config_.corpus_in.empty()) {
    fuzz::Corpus loaded = fuzz::Corpus::load(config_.corpus_in);
    if (loaded.core() != soc::core_name(config_.core)) {
      throw std::invalid_argument(
          "corpus-in '" + config_.corpus_in + "' was recorded on core '" +
          loaded.core() + "' but the campaign targets '" +
          std::string(soc::core_name(config_.core)) + "'");
    }
    if (loaded.universe() != backend_->coverage_universe()) {
      throw std::invalid_argument(
          "corpus-in '" + config_.corpus_in + "' has coverage universe " +
          std::to_string(loaded.universe()) + " but the campaign's DUT has " +
          std::to_string(backend_->coverage_universe()));
    }
    corpus_ = std::make_shared<fuzz::Corpus>(std::move(loaded));
    corpus_loaded_entries_ = corpus_->size();
    config_.policy.corpus = corpus_;
  } else if (!config_.corpus_out.empty()) {
    corpus_ = std::make_shared<fuzz::Corpus>(
        std::string(soc::core_name(config_.core)),
        backend_->coverage_universe(), config_.policy.corpus_cap);
    config_.policy.corpus = corpus_;
  }

  // Every stochastic component derives its stream from (seed, run, tag):
  // the campaign owns the derivation so equal configs replay bit-identically
  // regardless of who authored the PolicyConfig.
  config_.policy.bandit.rng_seed =
      common::derive_seed(config_.rng_seed, config_.run_index, "bandit");
  if (!config_.policy.length_policy && config_.policy.adaptive_length) {
    mab::BanditConfig len_bandit;
    len_bandit.num_arms = config_.policy.length_choices.size();
    len_bandit.rng_seed =
        common::derive_seed(config_.rng_seed, config_.run_index, "len-bandit");
    config_.policy.length_policy = std::make_shared<core::SeedLengthPolicy>(
        config_.policy.length_choices, mab::make_bandit("ucb", len_bandit));
  }

  fuzzer_ = make_fuzzer(config_.fuzzer, *backend_, config_.policy);
}

void Campaign::save_state(std::string& out) const {
  common::put_u64(out, steps_);
  common::put_u64(out, mismatches_);
  common::put_u32(out, static_cast<std::uint32_t>(first_detection_.size()));
  for (const std::uint64_t test : first_detection_) {
    common::put_u64(out, test);
  }
  common::put_u64(out, snapshots_.size());
  for (const BatchSnapshot& snapshot : snapshots_) {
    common::put_u64(out, snapshot.tests_executed);
    common::put_u64(out, snapshot.covered);
    common::put_u64(out, snapshot.universe);
  }
  out.push_back(corpus_ ? '\1' : '\0');
  // The corpus image, the largest field, is inserted in front of the
  // engine's state once that is written, so the buffer grows once to fit;
  // appended first, it would make the engine's appends reallocate the
  // buffer at twice its size.
  std::string image;
  if (corpus_) {
    image = corpus_->image();
    common::put_u64(out, image.size());
  }
  const std::size_t engine_at = out.size();
  backend_->save_state(out);
  fuzzer_->save_state(out);
  out.insert(engine_at, image);
}

void Campaign::restore_state(common::ByteReader& in) {
  steps_ = in.u64("step count");
  mismatches_ = in.u64("mismatch count");
  const std::uint32_t num_bugs = in.u32("bug count");
  if (num_bugs != soc::kNumBugs) {
    in.fail("bug count " + std::to_string(num_bugs) + " does not match this "
            "build's " + std::to_string(soc::kNumBugs) + " (version skew?)");
  }
  for (std::uint64_t& test : first_detection_) {
    test = in.u64("first detection");
  }
  snapshots_.resize(
      static_cast<std::size_t>(in.count("snapshot count", kMaxSnapshots)));
  for (BatchSnapshot& snapshot : snapshots_) {
    snapshot.tests_executed = in.u64("snapshot tests");
    snapshot.covered = static_cast<std::size_t>(in.u64("snapshot covered"));
    snapshot.universe = static_cast<std::size_t>(in.u64("snapshot universe"));
  }
  const std::uint8_t flag = in.u8("corpus flag");
  if (flag > 1) {
    in.fail("corpus flag " + std::to_string(flag) + " must be 0 or 1");
  }
  if ((flag == 1) != (corpus_ != nullptr)) {
    in.fail(flag == 1 ? "corpus flag 1 but the campaign has no shared corpus"
                      : "corpus flag 0 but the campaign has a shared corpus");
  }
  if (corpus_) {
    // Decoded from a view of the state: the image is not copied first.
    fuzz::Corpus corpus = fuzz::Corpus::from_image(
        in.blob_view("corpus image", fuzz::Corpus::kMaxImageBytes));
    if (corpus.core() != corpus_->core() ||
        corpus.universe() != corpus_->universe()) {
      in.fail("corpus image recorded on '" + corpus.core() +
              "' with universe " + std::to_string(corpus.universe()) +
              ", not this campaign's DUT");
    }
    *corpus_ = std::move(corpus);
  }
  backend_->restore_state(in);
  if (steps_ != backend_->tests_executed()) {
    in.fail("step count " + std::to_string(steps_) +
            " does not match the backend's " +
            std::to_string(backend_->tests_executed()));
  }
  fuzzer_->restore_state(in);
  if (!in.exhausted()) {
    in.fail("trailing bytes after the fuzzer state");
  }
}

bool Campaign::save_corpus() const {
  if (!corpus_ || config_.corpus_out.empty()) {
    return false;
  }
  corpus_->save(config_.corpus_out);
  return true;
}

double Campaign::elapsed_seconds() const noexcept {
  if (!timing_started_) {
    return 0.0;
  }
  // elapsed_seconds is the one documented nondeterministic artifact field
  // (docs/ARTIFACTS.md); every byte-identity check normalises it away.
  // detlint:allow(nondet-source)
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - started_)
      .count();
}

bool Campaign::bug_detected(soc::BugId bug) const noexcept {
  return first_detection_test(bug) != 0;
}

std::uint64_t Campaign::first_detection_test(soc::BugId bug) const noexcept {
  return first_detection_[static_cast<std::size_t>(bug)];
}

std::size_t Campaign::enabled_bug_count() const noexcept {
  std::size_t count = 0;
  for (const soc::BugInfo& info : soc::all_bugs()) {
    count += config_.bugs.enabled(info.id) ? 1 : 0;
  }
  return count;
}

std::size_t Campaign::detected_bug_count() const noexcept {
  std::size_t count = 0;
  for (const soc::BugInfo& info : soc::all_bugs()) {
    count += bug_detected(info.id) ? 1 : 0;
  }
  return count;
}

void Campaign::add_observer(CampaignObserver& observer) {
  observers_.push_back(&observer);
}

fuzz::StepResult Campaign::step() {
  if (!timing_started_) {
    timing_started_ = true;
    started_ = std::chrono::steady_clock::now();  // detlint:allow(nondet-source)
  }
  const fuzz::StepResult result = fuzzer_->step();
  ++steps_;
  if (result.mismatch) {
    ++mismatches_;
    for (const soc::BugFiring& firing : result.firings) {
      std::uint64_t& first = first_detection_[static_cast<std::size_t>(firing.id)];
      if (first == 0) {
        first = result.test_index;
      }
    }
  }
  for (CampaignObserver* observer : observers_) {
    observer->on_step(*this, result);
  }
  return result;
}

void Campaign::take_snapshot() {
  const BatchSnapshot snapshot{steps_, covered(), coverage_universe()};
  snapshots_.push_back(snapshot);
  for (CampaignObserver* observer : observers_) {
    observer->on_batch(*this, snapshot);
  }
}

std::optional<RunResult> Campaign::run_slice(const StopCondition& stop,
                                             std::uint64_t quantum) {
  const std::uint64_t batch = config_.effective_snapshot_every();
  const auto detected = [&] {
    return stop.target_bug && bug_detected(*stop.target_bug);
  };
  // The config's budget caps every run: construction checked only its
  // snapshot count against kMaxSnapshots.
  const std::uint64_t cap = std::min(stop.test_cap, config_.max_tests);
  // Checked between steps (including before the first), so an already
  // satisfied condition executes zero tests. The snapshot cadence keys on
  // the campaign-global step count, not a per-call counter, so slicing
  // does not perturb the snapshot sequence.
  for (std::uint64_t executed = 0; !detected() && steps_ < cap; ++executed) {
    if (executed == quantum) {
      return std::nullopt;
    }
    step();
    if (steps_ % batch == 0) {
      take_snapshot();
    }
  }
  if (steps_ > 0 &&
      (snapshots_.empty() || snapshots_.back().tests_executed != steps_)) {
    take_snapshot();
  }

  RunResult result;
  result.reason = detected() ? StopReason::kBugDetected : StopReason::kMaxTests;
  result.tests_executed = steps_;
  result.covered = covered();
  result.elapsed_seconds = elapsed_seconds();
  return result;
}

RunResult Campaign::run_until(const StopCondition& stop) {
  // A quantum that can never be exhausted before the condition holds.
  return *run_slice(stop, std::numeric_limits<std::uint64_t>::max());
}

RunResult Campaign::run() {
  return run_until(StopCondition::max_tests(config_.max_tests));
}

}  // namespace mabfuzz::harness
