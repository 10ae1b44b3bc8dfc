// Seeded mutation tests of every input that reaches the process from
// outside: serve command lines, corpus-v2 images and checkpoint-v4 files.
// Campaign config pairs ride in two of those carriers (submit lines and
// the checkpoint's pair section); RandomKeySoupNeverCrashesTheParser in
// test_campaign covers the bare parser. One mutator makes every mutant,
// drawing from common/rng streams: a byte flip, a truncation, an
// extension, or a count set huge. Each mutant must be refused with a
// descriptive error, or accepted and then usable. Nothing may abort.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "fuzz/corpus.hpp"
#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "harness/serve.hpp"
#include "harness/service.hpp"

namespace mabfuzz::harness {
namespace {

enum class Input : std::uint8_t { kBinary, kText };

/// The one mutator: a byte flip, a truncation, an extension by 1-16
/// random bytes, or a count set huge. In binary input the count is a
/// little-endian u64 holding 1..4096 at any offset, set to 2^63; in text
/// input it is a run of decimal digits, replaced by 2^63 or 2^64-1.
std::string mutate(std::string bytes, common::Xoshiro256StarStar& rng,
                   Input input) {
  switch (rng.next_index(4)) {
    case 0: {
      const std::size_t at = rng.next_index(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.next_index(255)));
      break;
    }
    case 1:
      bytes.resize(rng.next_index(bytes.size()));
      break;
    case 2: {
      const std::size_t extra = 1 + rng.next_index(16);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng.next_index(256)));
      }
      break;
    }
    default: {
      if (input == Input::kText) {
        std::vector<std::pair<std::size_t, std::size_t>> runs;  // at, length
        for (std::size_t at = 0; at < bytes.size();) {
          std::size_t end = at;
          while (end < bytes.size() && bytes[end] >= '0' && bytes[end] <= '9') {
            ++end;
          }
          if (end > at) {
            runs.emplace_back(at, end - at);
          }
          at = end + 1;
        }
        const std::string_view huge = rng.next_index(2) == 0
                                          ? "9223372036854775808"
                                          : "18446744073709551615";
        const auto [at, length] = runs.empty()
                                      ? std::pair{bytes.size(), std::size_t{0}}
                                      : runs[rng.next_index(runs.size())];
        bytes.replace(at, length, huge);
        break;
      }
      std::vector<std::size_t> counts;
      for (std::size_t at = 0; at + 8 <= bytes.size(); ++at) {
        std::uint64_t value = 0;
        for (int i = 0; i < 8; ++i) {
          value |= static_cast<std::uint64_t>(
                       static_cast<unsigned char>(bytes[at + i]))
                   << (8 * i);
        }
        if (value >= 1 && value <= 4096) {
          counts.push_back(at);
        }
      }
      const std::size_t at = counts.empty()
                                 ? rng.next_index(bytes.size() - 7)
                                 : counts[rng.next_index(counts.size())];
      for (int i = 0; i < 8; ++i) {
        bytes[at + i] = static_cast<char>(i == 7 ? 0x80 : 0);
      }
      break;
    }
  }
  return bytes;
}

CampaignConfig tiny(std::string fuzzer, std::uint64_t tests,
                    soc::CoreKind core = soc::CoreKind::kRocket) {
  CampaignConfig config;
  config.fuzzer = std::move(fuzzer);
  config.core = core;
  config.max_tests = tests;
  config.rng_seed = 11;
  config.snapshot_every = 25;
  return config;
}

/// Runs `campaign` forward by exactly `steps` tests without finalizing.
void advance(Campaign& campaign, std::uint64_t steps) {
  ASSERT_FALSE(campaign.run_slice(StopCondition::max_tests(UINT64_MAX), steps)
                   .has_value());
}

/// A fresh scratch directory under the test temp dir.
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name + "/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- serve command lines --------------------------------------------------------

bool is_reply(const std::string& reply) {
  return reply == "ok" || reply.starts_with("ok ") ||
         reply.starts_with("error: ");
}

/// Feeds `input` through the line drain in 4 KiB reads, as the serve
/// stdin loop does: a buffered tail longer than kMaxCommandLine gets the
/// over-long reply and is skipped through its newline.
std::vector<std::string> feed(CampaignService& service,
                              std::string_view input) {
  std::vector<std::string> replies;
  std::string buffer;
  bool shutdown = false;
  bool discarding = false;
  for (std::size_t at = 0; at < input.size(); at += 4096) {
    std::string_view chunk = input.substr(at, 4096);
    if (discarding) {
      const std::size_t nl = chunk.find('\n');
      if (nl == std::string_view::npos) {
        continue;
      }
      chunk.remove_prefix(nl + 1);
      discarding = false;
    }
    buffer.append(chunk);
    for (std::string& reply : drain_command_buffer(service, buffer, shutdown)) {
      replies.push_back(std::move(reply));
    }
    if (buffer.size() > kMaxCommandLine) {
      replies.push_back(line_too_long_reply());
      buffer.clear();
      discarding = true;
    }
  }
  return replies;
}

/// Lines of `input` that are not empty once a trailing '\r' is dropped.
std::size_t command_lines(std::string_view input) {
  std::size_t lines = 0;
  for (std::size_t start = 0, nl; (nl = input.find('\n', start)) !=
                                  std::string_view::npos;
       start = nl + 1) {
    std::string_view line = input.substr(start, nl - start);
    if (line.ends_with('\r')) {
      line.remove_suffix(1);
    }
    lines += line.empty() ? 0 : 1;
  }
  return lines;
}

TEST(InputMutationTest, EveryServeLineGetsExactlyOneReply) {
  const std::string dir = scratch_dir("serve-mutants");
  const std::string store = dir + "rocket.corpus";
  const std::string checkpoint = dir + "ck.ckpt";
  {
    CampaignConfig config = tiny("ucb", 60);
    config.corpus_out = store;
    Campaign campaign(config);
    advance(campaign, 30);
    ASSERT_TRUE(campaign.save_corpus());
    Checkpoint captured = Checkpoint::capture(campaign);
    captured.job_name = "ck";
    captured.artifact_out = dir + "ck";
    captured.save(checkpoint);
  }

  std::vector<std::string> seeds;
  for (const char* core : {"cva6", "rocket", "boom"}) {
    for (const char* fuzzer : {"thehuzz", "random", "reuse", "epsilon-greedy",
                               "exp3", "thompson", "ucb"}) {
      seeds.push_back(std::string("submit tenant=t job=") + core + "-" +
                      fuzzer + " fuzzer=" + fuzzer + " core=" + core +
                      " tests=500 seed=7 arms=10 gamma=3 bugs=default");
    }
  }
  seeds.push_back("submit job=kitchen fuzzer=epsilon-greedy core=cva6 "
                  "adaptive-ops=true adaptive-length=true "
                  "length-choices=8,16,32 mutants=5 initial-seeds=4 arms=1024 "
                  "pool-cap=64 corpus-cap=32 snapshot-every=100 "
                  "epsilon=0.1 eta=0.1 alpha=0.25 tests=300 artifact-out=" +
                  dir + "kitchen");
  seeds.push_back("submit job=out fuzzer=reuse core=boom reuse-bandit=exp3 "
                  "corpus-out=" + dir + "out.corpus tests=100");
  seeds.push_back("submit job=warm fuzzer=reuse core=rocket corpus-in=" +
                  store + " tests=100");
  seeds.push_back("resume-checkpoint " + checkpoint);
  for (const char* verb : {"pause", "resume", "cancel"}) {
    seeds.push_back(std::string(verb) + " live");
  }
  for (const char* verb : {"status", "drain", "shutdown"}) {
    seeds.push_back(verb);
  }
  seeds.push_back("status\r\nstatus\n\npause live");
  seeds.push_back(std::string(2 * kMaxCommandLine, 'x'));
  seeds.push_back("submit job=long fuzzer=ucb bugs=" +
                  std::string(kMaxCommandLine, 'V'));

  common::Xoshiro256StarStar rng =
      common::make_stream(21, 0, "serve-line-mutants");
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  for (const std::string& seed : seeds) {
    SCOPED_TRACE(seed.substr(0, 120));
    // Never started: accepted jobs only queue. One live job gives the
    // control verbs a target.
    CampaignService service(ServiceConfig{});
    ASSERT_EQ(handle_serve_line(service, "submit job=live tests=50").line,
              "ok submitted live");
    for (int i = 0; i < 24; ++i, ++mutants) {
      const std::string line = mutate(seed, rng, Input::kText);
      const std::string reply = handle_serve_line(service, line).line;
      EXPECT_TRUE(is_reply(reply)) << "mutant " << i << ": " << reply;
      accepted += reply.starts_with("ok") ? 1 : 0;

      const std::string input = line + "\n";
      const std::vector<std::string> replies = feed(service, input);
      EXPECT_EQ(replies.size(), command_lines(input)) << "mutant " << i;
      for (const std::string& r : replies) {
        EXPECT_TRUE(is_reply(r)) << "mutant " << i << ": " << r;
        EXPECT_EQ(r.find('\n'), std::string::npos) << "mutant " << i;
      }
    }
  }
  EXPECT_GE(mutants, 300u);
  // Both outcomes occur: flips in a job name or a seed are still valid.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, mutants);
  std::filesystem::remove_all(dir);
}

// --- corpus-v2 images -----------------------------------------------------------

TEST(InputMutationTest, CorpusImagesAreRefusedOrSound) {
  const std::string dir = scratch_dir("corpus-mutants");
  std::vector<std::string> images;
  for (const auto& [fuzzer, core] :
       {std::pair{"thehuzz", soc::CoreKind::kRocket},
        std::pair{"reuse", soc::CoreKind::kBoom}}) {
    CampaignConfig config = tiny(fuzzer, 200, core);
    config.corpus_out = dir + fuzzer + ".corpus";
    Campaign campaign(config);
    advance(campaign, 200);
    ASSERT_GT(campaign.corpus()->size(), 1u);
    images.push_back(campaign.corpus()->image());
  }

  common::Xoshiro256StarStar rng = common::make_stream(21, 0, "corpus-mutants");
  for (const std::string& image : images) {
    std::size_t refused = 0;
    for (int i = 0; i < 300; ++i) {
      const std::string mutant = mutate(image, rng, Input::kBinary);
      std::optional<fuzz::Corpus> store;
      try {
        store.emplace(fuzz::Corpus::from_image(mutant));
      } catch (const std::runtime_error& e) {
        EXPECT_TRUE(std::string_view(e.what()).starts_with("corpus load: "))
            << e.what();
      }
      if (!store.has_value()) {
        ++refused;
        continue;
      }
      EXPECT_EQ(store->image(), mutant) << "mutant " << i;
      // An accepted store stays usable: offer, merge with itself, distill.
      fuzz::TestCase test;
      test.words = {0x13};
      coverage::Map fresh(store->universe());
      fresh.set(static_cast<coverage::PointId>(store->universe() - 1));
      (void)store->offer(test, fresh);
      store->merge(*store);
      (void)store->distill();
      EXPECT_LE(store->size(), store->max_entries());
      EXPECT_TRUE(fuzz::Corpus::from_image(store->image()) == *store);
    }
    // Both outcomes occur: flips in test words or map words load.
    EXPECT_GT(refused, 0u);
    EXPECT_LT(refused, 300u);
  }
  std::filesystem::remove_all(dir);
}

// --- checkpoint-v4 files --------------------------------------------------------

TEST(InputMutationTest, CheckpointFilesAreRefusedOrResume) {
  // The mutants carry a recomputed checksum, so they reach the payload
  // parser and the resume checks (BitFlipsAreRejectedEverywhere covers
  // the checksum gate itself).
  const std::string dir = scratch_dir("checkpoint-mutants");
  CampaignConfig ucb = tiny("ucb", 400);
  CampaignConfig thehuzz = tiny("thehuzz", 400, soc::CoreKind::kCva6);
  thehuzz.bugs = soc::default_bugs(thehuzz.core);
  CampaignConfig reuse = tiny("reuse", 400);
  reuse.corpus_out = dir + "reuse.corpus";

  common::Xoshiro256StarStar rng =
      common::make_stream(21, 0, "checkpoint-mutants");
  const std::string path = dir + "mutant.ckpt";
  for (const CampaignConfig& config : {ucb, thehuzz, reuse}) {
    SCOPED_TRACE(config.fuzzer);
    Campaign campaign(config);
    advance(campaign, 120);
    Checkpoint::capture(campaign).save(path);
    const std::string file = common::read_file(path, 1u << 26);
    // magic (8) | u32 version | u64 payload length | payload | u64 hash64
    const std::string payload = file.substr(20, file.size() - 28);
    std::size_t refused = 0;
    for (int i = 0; i < 300; ++i) {
      const std::string mutated = mutate(payload, rng, Input::kBinary);
      std::string bytes = file.substr(0, 12);
      common::put_blob(bytes, mutated);
      common::put_u64(bytes, common::hash64(mutated));
      write_bytes(path, bytes);
      std::unique_ptr<Campaign> resumed;
      std::uint64_t steps = 0;
      try {
        const Checkpoint loaded = Checkpoint::load(path);
        steps = loaded.steps;
        resumed = resume_campaign(loaded);
      } catch (const std::runtime_error&) {
        ++refused;
        continue;
      } catch (const std::invalid_argument&) {
        ++refused;
        continue;
      }
      advance(*resumed, 20);
      EXPECT_EQ(resumed->tests_executed(), steps + 20) << "mutant " << i;
    }
    // Both outcomes occur: flips inside test words or RNG words resume.
    EXPECT_GT(refused, 0u);
    EXPECT_LT(refused, 300u);
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointCorruptionTest, MutatedStateIsRefusedOrConsistent) {
  // The state section is checksummed like the rest of the file, so these
  // mutants model a writer bug or a forged checksum: every count must be
  // bounded before it allocates, and whatever passes the round-trip check
  // must be a campaign that runs.
  common::Xoshiro256StarStar rng = common::make_stream(18, 0, "state-mutants");
  for (const char* fuzzer : {"thehuzz", "ucb"}) {
    SCOPED_TRACE(fuzzer);
    Campaign campaign(tiny(fuzzer, 400));
    advance(campaign, 120);
    const Checkpoint original = Checkpoint::capture(campaign);
    ASSERT_GT(original.state.size(), 64u);
    std::size_t refused = 0;
    for (int i = 0; i < 300; ++i) {
      Checkpoint mutant = original;
      mutant.state = mutate(original.state, rng, Input::kBinary);
      std::unique_ptr<Campaign> resumed;
      try {
        resumed = resume_campaign(mutant);
      } catch (const std::runtime_error&) {
        ++refused;
        continue;
      }
      advance(*resumed, 20);
      EXPECT_EQ(resumed->tests_executed(), 140u) << "mutant " << i;
    }
    // Both outcomes occur: flips inside test words or RNG words resume.
    EXPECT_GT(refused, 0u);
    EXPECT_LT(refused, 300u);
  }
}

}  // namespace
}  // namespace mabfuzz::harness
