#pragma once
// Seed generator: random-but-well-formed bare-metal test programs, the
// same style of constrained-random instruction streams TheHuzz seeds with.
// Every generated instruction is architecturally legal; illegal encodings
// enter the population only through mutation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "fuzz/test_case.hpp"
#include "isa/opcode.hpp"

namespace mabfuzz::fuzz {

struct SeedGenConfig {
  unsigned instructions_per_seed = 20;  // TheHuzz's test length
  /// Instruction-class mix (need not be normalised).
  double w_alu = 34;
  double w_muldiv = 8;
  double w_load = 12;
  double w_store = 10;
  double w_branch = 8;
  double w_jump = 3;
  double w_upper = 7;
  double w_csr = 8;
  double w_fence = 2;
  double w_system = 4;
  double w_addr_setup = 6;  // LUI/ADDI idiom constructing a valid DRAM address
};

class SeedGenerator {
 public:
  SeedGenerator(const SeedGenConfig& config, common::Xoshiro256StarStar rng);

  /// Generates the next seed program (ids are assigned by the caller).
  [[nodiscard]] std::vector<isa::Word> next_program();

  /// Same, with an explicit instruction count (for adaptive test-length
  /// policies); `length` == 0 falls back to the configured length.
  [[nodiscard]] std::vector<isa::Word> next_program(unsigned length);

  [[nodiscard]] const SeedGenConfig& config() const noexcept { return config_; }

  /// The RNG stream is the generator's only state between programs (the
  /// register and store-site lists restart with every program).
  void save_state(std::string& out) const { common::put_rng(out, rng_); }
  void restore_state(common::ByteReader& in) { rng_ = in.rng("seedgen rng"); }

 private:
  isa::Instruction random_alu();
  isa::Instruction random_muldiv();
  isa::Instruction random_load();
  isa::Instruction random_store();
  isa::Instruction random_branch(unsigned position, unsigned length);
  isa::Instruction random_jump(unsigned position, unsigned length);
  isa::Instruction random_upper();
  isa::Instruction random_csr();
  isa::Instruction random_fence();
  isa::Instruction random_system();

  [[nodiscard]] isa::RegIndex random_reg();
  /// A base register biased toward ones holding valid DRAM addresses.
  [[nodiscard]] isa::RegIndex random_base_reg();
  /// (base, offset) of a previous store, for load-after-store reuse.
  struct StoreSite {
    isa::RegIndex base = 0;
    std::int64_t offset = 0;
  };
  [[nodiscard]] std::uint16_t random_csr_addr();
  [[nodiscard]] std::int64_t random_mem_offset();

  SeedGenConfig config_;
  common::Xoshiro256StarStar rng_;
  std::vector<isa::RegIndex> addr_regs_;   // registers set up as DRAM pointers
  std::vector<isa::RegIndex> value_regs_;  // registers holding non-zero data
  std::vector<StoreSite> store_sites_;     // previous stores in this program
};

}  // namespace mabfuzz::fuzz
