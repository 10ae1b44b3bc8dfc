#include "fuzz/corpus.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "common/json.hpp"

namespace mabfuzz::fuzz {

namespace {

constexpr std::string_view kMagic("MABFUZZC", 8);

/// Guard against absurd length fields in corrupt files: no real corpus
/// entry carries a megaword program or a megabyte of operator history.
constexpr std::uint64_t kMaxFieldLength = 1u << 20;

/// Same for the header's size fields — every allocation a corrupt file
/// could steer is bounded before it happens. Real coverage universes are
/// ~10^4 points; 2^26 (a 1 MiB map) is orders of magnitude of headroom.
constexpr std::uint64_t kMaxUniverse = 1u << 26;

/// The canonical federation order merge() re-offers candidates in:
/// novelty descending (the highest-yield tests re-enter the gate first,
/// mirroring the eviction policy's preference), then admission order,
/// then full test content so the ordering never depends on which store a
/// candidate came from, then source rank — reachable only for entries
/// identical in every field, where the admission gate rejects the
/// duplicate regardless of order. This makes the pairwise merge
/// commutative: merge(A,B) and merge(B,A) serialize byte-identically.
bool merge_precedes(const std::pair<const CorpusEntry*, int>& a,
                    const std::pair<const CorpusEntry*, int>& b) {
  const CorpusEntry& ea = *a.first;
  const CorpusEntry& eb = *b.first;
  if (ea.novelty != eb.novelty) {
    return ea.novelty > eb.novelty;
  }
  if (ea.order != eb.order) {
    return ea.order < eb.order;
  }
  const TestCase& ta = ea.test;
  const TestCase& tb = eb.test;
  if (ta.id != tb.id) {
    return ta.id < tb.id;
  }
  if (ta.seed_id != tb.seed_id) {
    return ta.seed_id < tb.seed_id;
  }
  if (ta.parent_id != tb.parent_id) {
    return ta.parent_id < tb.parent_id;
  }
  if (ta.generation != tb.generation) {
    return ta.generation < tb.generation;
  }
  if (ta.words != tb.words) {
    return ta.words < tb.words;
  }
  if (ta.mutation_ops != tb.mutation_ops) {
    return ta.mutation_ops < tb.mutation_ops;
  }
  const auto wa = ea.map.words();
  const auto wb = eb.map.words();
  if (!std::equal(wa.begin(), wa.end(), wb.begin(), wb.end())) {
    return std::lexicographical_compare(wa.begin(), wa.end(), wb.begin(),
                                        wb.end());
  }
  return a.second < b.second;
}

}  // namespace

Corpus::Corpus(std::string core, std::size_t coverage_universe,
               std::size_t max_entries)
    : core_(std::move(core)),
      max_entries_(std::max<std::size_t>(1, max_entries)),
      accumulated_(coverage_universe) {}

bool Corpus::offer(const TestCase& test, const coverage::Map& test_coverage) {
  const std::size_t fresh = test_coverage.count_new(accumulated_);
  if (fresh == 0) {
    ++rejected_;
    return false;
  }
  if (entries_.size() >= max_entries_) {
    // Evict the least novel entry, oldest first on ties — never FIFO age
    // alone: a low-yield old entry goes before a high-yield older one.
    const auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const CorpusEntry& a, const CorpusEntry& b) {
          return a.novelty != b.novelty ? a.novelty < b.novelty
                                        : a.order < b.order;
        });
    entries_.erase(victim);
    ++evicted_;
  }
  CorpusEntry entry;
  entry.test = test;
  entry.map = test_coverage;
  entry.novelty = fresh;
  entry.order = next_order_++;
  entries_.push_back(std::move(entry));
  accumulated_.merge(test_coverage);
  ++admitted_;
  return true;
}

// --- federation -----------------------------------------------------------------

void Corpus::merge(const Corpus& other) {
  if (other.core_ != core_) {
    throw std::invalid_argument("corpus merge: core mismatch ('" + core_ +
                                "' vs '" + other.core_ + "')");
  }
  if (other.universe() != universe()) {
    throw std::invalid_argument(
        "corpus merge: coverage universe mismatch (" +
        std::to_string(universe()) + " vs " +
        std::to_string(other.universe()) + ")");
  }
  std::vector<std::pair<const CorpusEntry*, int>> candidates;
  candidates.reserve(entries_.size() + other.entries_.size());
  for (const CorpusEntry& entry : entries_) {
    candidates.emplace_back(&entry, 0);
  }
  for (const CorpusEntry& entry : other.entries_) {
    candidates.emplace_back(&entry, 1);
  }
  std::sort(candidates.begin(), candidates.end(), merge_precedes);

  // Re-offer the union into a fresh store: novelty and admission order are
  // recomputed against the merged gate, so the result equals what a single
  // campaign would have built from these tests in canonical order.
  Corpus merged(core_, universe(), std::max(max_entries_, other.max_entries_));
  for (const auto& candidate : candidates) {
    merged.offer(candidate.first->test, candidate.first->map);
  }
  // The ratchet survives federation: points contributed by entries evicted
  // before the merge keep gating admissions afterwards.
  merged.accumulated_.merge(accumulated_);
  merged.accumulated_.merge(other.accumulated_);
  *this = std::move(merged);
}

std::size_t Corpus::distill() {
  if (entries_.empty()) {
    return 0;
  }
  // The cover target is the union of the current entries' maps, not the
  // accumulated ratchet: the ratchet may hold points only evicted entries
  // ever covered, which no subset of the survivors can reproduce. The
  // ratchet itself is left untouched.
  coverage::Map covered_so_far(universe());
  std::vector<bool> keep(entries_.size(), false);
  for (;;) {
    std::size_t best = entries_.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (keep[i]) {
        continue;
      }
      const std::size_t gain = entries_[i].map.count_new(covered_so_far);
      // Strict > keeps ties on the earliest entry; entries_ is stored in
      // admission order, so that is the oldest — matching the eviction
      // policy's tie-break, mirrored.
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best_gain == 0) {
      break;
    }
    keep[best] = true;
    covered_so_far.merge(entries_[best].map);
  }
  std::vector<CorpusEntry> kept;
  kept.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (keep[i]) {
      kept.push_back(std::move(entries_[i]));
    }
  }
  const std::size_t removed = entries_.size() - kept.size();
  entries_ = std::move(kept);
  evicted_ += removed;
  return removed;
}

// --- serialization --------------------------------------------------------------

std::string Corpus::image() const {
  // Reserved from above, so the image is built without regrowing.
  std::size_t bytes = kMagic.size() + 96 + core_.size() +
                      8 * accumulated_.words().size();
  for (const CorpusEntry& entry : entries_) {
    bytes += 64 + entry.test.mutation_ops.size() + 4 * entry.test.words.size() +
             8 * entry.map.words().size();
  }
  std::string out;
  out.reserve(bytes);
  out.append(kMagic);
  common::put_u32(out, kVersion);
  common::put_str(out, core_);
  common::put_u64(out, universe());
  common::put_u64(out, max_entries_);
  common::put_u64(out, admitted_);
  common::put_u64(out, rejected_);
  common::put_u64(out, evicted_);
  common::put_u64(out, next_order_);
  common::put_u64(out, entries_.size());
  for (const CorpusEntry& entry : entries_) {
    const TestCase& test = entry.test;
    common::put_u64(out, test.id);
    common::put_u64(out, test.seed_id);
    common::put_u64(out, test.parent_id);
    common::put_u32(out, test.generation);
    common::put_u64(out, entry.novelty);
    common::put_u64(out, entry.order);
    common::put_str(out, std::string_view(reinterpret_cast<const char*>(
                                              test.mutation_ops.data()),
                                          test.mutation_ops.size()));
    common::put_u32(out, static_cast<std::uint32_t>(test.words.size()));
    common::put_words(out, std::span<const isa::Word>(test.words));
    entry.map.save_state(out);
  }
  accumulated_.save_state(out);
  return out;
}

void Corpus::save(std::ostream& os) const { os << image(); }

void Corpus::save(const std::string& path) const {
  common::write_file_atomic(path, image());
  std::ostringstream manifest;
  write_manifest(manifest);
  common::write_file_atomic(path + ".json", manifest.str());
}

void Corpus::write_manifest(std::ostream& os) const {
  common::JsonWriter json(os);
  json.begin_object();
  json.key("schema").value(kSchema);
  json.key("core").value(core_);
  json.key("universe").value(static_cast<std::uint64_t>(universe()));
  json.key("max_entries").value(static_cast<std::uint64_t>(max_entries_));
  json.key("entries").value(static_cast<std::uint64_t>(entries_.size()));
  json.key("covered").value(static_cast<std::uint64_t>(covered()));
  json.key("admitted").value(admitted_);
  json.key("rejected").value(rejected_);
  json.key("evicted").value(evicted_);
  json.key("tests").begin_array();
  for (const CorpusEntry& entry : entries_) {
    json.begin_object();
    json.key("id").value(entry.test.id);
    json.key("seed_id").value(entry.test.seed_id);
    json.key("parent_id").value(entry.test.parent_id);
    json.key("generation")
        .value(static_cast<std::uint64_t>(entry.test.generation));
    json.key("novelty").value(entry.novelty);
    json.key("order").value(entry.order);
    json.key("words").value(static_cast<std::uint64_t>(entry.test.words.size()));
    json.key("coverage").value(static_cast<std::uint64_t>(entry.map.count()));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
}

Corpus Corpus::from_image(std::string_view image) {
  if (!image.starts_with(kMagic)) {
    throw std::runtime_error(
        "corpus load: bad magic (not a mabfuzz-corpus file)");
  }
  common::ByteReader in(image.substr(kMagic.size()), "corpus load");
  const std::uint32_t version = in.u32("version");
  if (version != kVersion) {
    in.fail("unsupported version " + std::to_string(version) +
            " (this build reads " + std::to_string(kVersion) + ")");
  }
  std::string core = in.str("core name", kMaxFieldLength);
  const std::uint64_t universe = in.count("universe", kMaxUniverse);
  // Clamp explicitly rather than through the constructor: a hand-edited or
  // foreign-tool file with max_entries=0 describes a corpus this class
  // forbids, and the load-side contract is "honor the stored cap, floored
  // at 1" — not "whatever the constructor happens to do".
  const std::uint64_t max_entries =
      std::max<std::uint64_t>(1, in.count("entry cap", kMaxEntries));

  Corpus corpus(std::move(core), static_cast<std::size_t>(universe),
                static_cast<std::size_t>(max_entries));
  corpus.admitted_ = in.u64("admitted");
  corpus.rejected_ = in.u64("rejected");
  corpus.evicted_ = in.u64("evicted");
  corpus.next_order_ = in.u64("next order");

  const std::uint64_t entry_count = in.count("entry count", max_entries);
  corpus.entries_.reserve(static_cast<std::size_t>(entry_count));
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    CorpusEntry entry;
    TestCase& test = entry.test;
    test.id = in.u64("test id");
    test.seed_id = in.u64("seed id");
    test.parent_id = in.u64("parent id");
    test.generation = in.u32("generation");
    entry.novelty = in.u64("novelty");
    entry.order = in.u64("order");
    const std::string_view ops = in.str_view("mutation_ops", kMaxFieldLength);
    test.mutation_ops.assign(ops.begin(), ops.end());
    const std::uint32_t words = in.u32("program length");
    if (words == 0) {
      in.fail("entry with an empty program");
    }
    if (words > kMaxFieldLength) {
      in.fail("program length " + std::to_string(words) +
              " exceeds the sanity bound");
    }
    test.words.resize(words);
    in.words("program", std::span<isa::Word>(test.words));
    entry.map = coverage::Map(static_cast<std::size_t>(universe));
    entry.map.restore_state(in);
    corpus.entries_.push_back(std::move(entry));
  }
  corpus.accumulated_.restore_state(in);
  if (!in.exhausted()) {
    in.fail("trailing bytes after the accumulated coverage map");
  }
  return corpus;
}

Corpus Corpus::load(const std::string& path) {
  return from_image(common::read_file(path, kMaxImageBytes));
}

}  // namespace mabfuzz::fuzz
