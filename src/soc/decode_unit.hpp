#pragma once
// The substrate core's decode stage: per-lane, per-mnemonic branch-coverage
// instrumentation layered over the strict ISA decoder, the CVA6-style
// FP/SIMD pre-decode stub (a large, hard-to-reach coverage tail), and the
// decode-stage bug gates V1 (FENCE.I mis-decode) and V2 (reserved funct7
// encodings accepted).
//
// Everything decode produces is a pure function of the 32-bit word: the
// Outcome and the coverage points it hits (mnemonic, six condition bits,
// toggle bucket, FP pre-decode index or illegal class). The lane only
// offsets the point ids. The pre-decoded overload therefore caches a
// per-word *decode plan* (the outcome plus lane-0 point ids) in a
// direct-mapped table keyed by the word, like isa::DecodedProgram, and
// replays it with the lane's offsets. The per-word overload stays uncached:
// it is the reference the plan cache is tested against.

#include <cstdint>
#include <vector>

#include "common/fastmod.hpp"
#include "coverage/context.hpp"
#include "isa/decoder.hpp"
#include "soc/bugs.hpp"

namespace mabfuzz::soc {

struct DecodeUnitParams {
  unsigned lanes = 1;            // superscalar width (replicates all groups)
  unsigned toggle_buckets = 8;   // per-mnemonic operand-toggle sub-points
  unsigned fpu_predecode_points = 0;  // 0 disables the FP/SIMD stub group
};

class DecodeUnit {
 public:
  DecodeUnit(const DecodeUnitParams& params, BugSet bugs, coverage::Context& ctx);

  struct Outcome {
    bool legal = false;
    isa::Instruction instr;
    isa::DecodeStatus status = isa::DecodeStatus::kUnknownMajorOpcode;
    bool v1_spurious_rd_write = false;  // V1 fired: write rd := imm_i(word)
    isa::RegIndex v1_rd = 0;
    bool v2_illegal_executed = false;   // V2 fired: reserved encoding accepted

    friend bool operator==(const Outcome&, const Outcome&) = default;
  };

  /// Plan-table size. Mutants share most words with their parents, so a
  /// small table keeps a campaign's hot words; a collision only costs a
  /// re-plan, never a wrong outcome.
  static constexpr std::size_t kPlanSlots = 1024;

  /// Decodes `word` in lane `lane`, which must be below `lanes`.
  /// Uncached: the reference the plan cache must match bit for bit.
  Outcome decode(isa::Word word, unsigned lane, coverage::Context& ctx);

  /// Same outcome and coverage through the plan cache: the pre-decoded hot
  /// path. `strict` must equal isa::decode(word); it is read only when the
  /// word's plan is not cached. The reference stays valid until the next
  /// call of this overload.
  const Outcome& decode(isa::Word word, const isa::DecodeResult& strict,
                        unsigned lane, coverage::Context& ctx);

  /// True when `word` sits in the OP/OP-32 space with a reserved funct7 that
  /// the V2 gate would accept.
  [[nodiscard]] static bool v2_candidate(isa::Word word) noexcept;

  [[nodiscard]] const DecodeUnitParams& params() const noexcept { return params_; }

 private:
  static constexpr unsigned kPlanShift = 22;  // 32 - log2(kPlanSlots)
  static_assert(kPlanSlots == std::size_t{1} << (32 - kPlanShift));

  /// What decoding one word does, with lane-0 point ids. `fpu` is kNoPoint
  /// when the FP/SIMD stub does not fire; a legal outcome hits `mnemonic`,
  /// `condition_mask` at `condition` and `toggle`, an illegal one `illegal`.
  struct Plan {
    isa::Word word = 0;
    std::uint8_t condition_mask = 0;
    coverage::PointId fpu = 0;
    coverage::PointId mnemonic = 0;
    coverage::PointId condition = 0;
    coverage::PointId toggle = 0;
    coverage::PointId illegal = 0;
    Outcome outcome;
  };
  static constexpr coverage::PointId kNoPoint = ~coverage::PointId{0};

  /// The outcome of decoding `word`, with the V1/V2 gates applied.
  [[nodiscard]] Outcome resolve(isa::Word word, const isa::DecodeResult& strict) const;
  [[nodiscard]] Plan make_plan(isa::Word word, const isa::DecodeResult& strict) const;
  [[nodiscard]] std::size_t toggle_bucket(isa::Word word) const noexcept;
  [[nodiscard]] coverage::PointId fpu_point(isa::Word word) const noexcept;

  DecodeUnitParams params_;
  BugSet bugs_;
  // Division-free `% toggle_buckets` / `% fpu_predecode_points` for the
  // per-instruction hash buckets (bit-identical to `%`; common/fastmod.hpp).
  common::FastMod toggle_mod_;
  common::FastMod fpu_mod_;

  // Per lane * mnemonic.
  coverage::PointId cov_mnemonic_ = 0;
  // Per lane * mnemonic * 6 condition sub-points.
  coverage::PointId cov_condition_ = 0;
  // Per lane * mnemonic * toggle_buckets.
  coverage::PointId cov_toggle_ = 0;
  // Per lane * decode-status (5 illegal classes).
  coverage::PointId cov_illegal_ = 0;
  // FP/SIMD pre-decode stub (shared across lanes).
  coverage::PointId cov_fpu_ = 0;

  std::vector<Plan> plans_;  // kPlanSlots, indexed by Fibonacci hash of the word
};

}  // namespace mabfuzz::soc
