#include "fuzz/test_case.hpp"

#include <cstdio>
#include <span>
#include <sstream>
#include <string_view>

#include "isa/disasm.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::fuzz {

std::string to_listing(const TestCase& test) {
  std::ostringstream ss;
  ss << "test #" << test.id << " (seed " << test.seed_id << ", gen "
     << test.generation << ", " << test.words.size() << " instrs)\n";
  for (std::size_t i = 0; i < test.words.size(); ++i) {
    char head[48];
    std::snprintf(head, sizeof head, "  %08llx:  %08x  ",
                  static_cast<unsigned long long>(isa::kProgramBase + 4 * i),
                  test.words[i]);
    ss << head << isa::disassemble_word(test.words[i]) << '\n';
  }
  return ss.str();
}

namespace {
/// mabfuzz-corpus-v2's bound on an entry's program and operator lists.
constexpr std::uint64_t kMaxTestField = 1u << 20;
}  // namespace

void put_test(std::string& out, const TestCase& test) {
  common::put_u64(out, test.id);
  common::put_u64(out, test.seed_id);
  common::put_u64(out, test.parent_id);
  common::put_u32(out, test.generation);
  common::put_str(out, std::string_view(reinterpret_cast<const char*>(
                                            test.mutation_ops.data()),
                                        test.mutation_ops.size()));
  common::put_u32(out, static_cast<std::uint32_t>(test.words.size()));
  common::put_words(out, std::span<const isa::Word>(test.words));
}

TestCase read_test(common::ByteReader& in) {
  TestCase test;
  test.id = in.u64("test id");
  test.seed_id = in.u64("test seed id");
  test.parent_id = in.u64("test parent id");
  test.generation = in.u32("test generation");
  const std::string_view ops = in.str_view("test mutation ops", kMaxTestField);
  test.mutation_ops.assign(ops.begin(), ops.end());
  const std::uint32_t words = in.u32("test word count");
  if (words == 0 || words > kMaxTestField) {
    in.fail("test word count " + std::to_string(words) +
            " is outside 1.." + std::to_string(kMaxTestField));
  }
  test.words.resize(words);
  in.words("test words", std::span<isa::Word>(test.words));
  return test;
}

}  // namespace mabfuzz::fuzz
