#include "soc/decode_unit.hpp"

#include "common/bitops.hpp"
#include "isa/fields.hpp"

namespace mabfuzz::soc {

using common::bits;

namespace {

constexpr unsigned kConditionsPerMnemonic = 6;
constexpr unsigned kIllegalClasses = 5;

// FP/SIMD major opcodes of the disabled CVA6 FPU/SIMD units: the pre-decode
// logic still pattern-matches them even though execution always traps.
bool is_fp_opcode(isa::Word opcode) noexcept {
  return opcode == 0b1010011 ||  // OP-FP
         opcode == 0b0000111 ||  // LOAD-FP
         opcode == 0b0100111 ||  // STORE-FP
         opcode == 0b1000011;    // FMADD
}

unsigned illegal_class_index(isa::DecodeStatus status) noexcept {
  switch (status) {
    case isa::DecodeStatus::kNotCompressed: return 0;
    case isa::DecodeStatus::kUnknownMajorOpcode: return 1;
    case isa::DecodeStatus::kUnknownFunct3: return 2;
    case isa::DecodeStatus::kUnknownFunct7: return 3;
    case isa::DecodeStatus::kBadSystemEncoding: return 4;
    case isa::DecodeStatus::kOk: break;
  }
  return 1;
}

/// The six decode-condition sub-points of a legal instruction, bit i for
/// sub-point i.
std::uint64_t condition_mask(const isa::Instruction& instr) noexcept {
  return (instr.rd == 0 ? 1u : 0u) | (instr.rs1 == 0 ? 2u : 0u) |
         (instr.rs1 == instr.rs2 ? 4u : 0u) | (instr.imm < 0 ? 8u : 0u) |
         (instr.imm == 0 ? 16u : 0u) |
         (instr.rd == instr.rs1 && instr.rd != 0 ? 32u : 0u);
}

}  // namespace

DecodeUnit::DecodeUnit(const DecodeUnitParams& params, BugSet bugs,
                       coverage::Context& ctx)
    : params_(params), bugs_(bugs),
      toggle_mod_(common::FastMod(params.toggle_buckets)),
      fpu_mod_(common::FastMod(params.fpu_predecode_points)) {
  auto& reg = ctx.registry();
  const std::size_t mnems = isa::kNumMnemonics;
  cov_mnemonic_ = reg.add_array("decode/mnemonic", params_.lanes * mnems);
  cov_condition_ = reg.add_array("decode/condition",
                                 params_.lanes * mnems * kConditionsPerMnemonic);
  cov_toggle_ = reg.add_array("decode/toggle",
                              params_.lanes * mnems * params_.toggle_buckets);
  cov_illegal_ = reg.add_array("decode/illegal_class",
                               params_.lanes * kIllegalClasses);
  if (params_.fpu_predecode_points > 0) {
    cov_fpu_ = reg.add_array("decode/fpu_predecode", params_.fpu_predecode_points);
  }
  // Every slot starts as word 0's plan, so the tag check alone decides a
  // hit (the same trick as isa::DecodedProgram).
  plans_.assign(kPlanSlots, make_plan(0, isa::decode(0)));
}

bool DecodeUnit::v2_candidate(isa::Word word) noexcept {
  // The faulty comparator sits in the OP-32 ("W"-instruction) decode rows
  // only — the narrower trigger surface keeps V2 a mutation-depth target,
  // like the original CVA6 bug.
  if (isa::opcode_field(word) != 0b0111011) {
    return false;
  }
  // The truncated comparator drops funct7[6] and ignores funct7[4:1]; only
  // encodings of the form 0b10xxxx0 slip through it.
  const isa::Word f7 = isa::funct7_field(word);
  if ((f7 & 0b1100001) != 0b1000000) {
    return false;
  }
  const isa::DecodeResult strict = isa::decode(word);
  return strict.status == isa::DecodeStatus::kUnknownFunct7;
}

std::size_t DecodeUnit::toggle_bucket(isa::Word word) const noexcept {
  // Operand-field toggle mass: which decode-datapath bit pattern this
  // encoding exercises (funct fields + low immediate bits).
  const std::uint64_t pattern = bits(word, 7, 25);  // above the major opcode
  return static_cast<std::size_t>(
      toggle_mod_(pattern ^ (pattern >> 7) ^ (pattern >> 14)));
}

coverage::PointId DecodeUnit::fpu_point(isa::Word word) const noexcept {
  // The FP/SIMD pre-decode stub fires on the raw word, legal or not.
  if (params_.fpu_predecode_points == 0 || !is_fp_opcode(isa::opcode_field(word))) {
    return kNoPoint;
  }
  return cov_fpu_ + static_cast<coverage::PointId>(fpu_mod_(
                        bits(word, 25, 7) * 41 + bits(word, 20, 5) * 5 +
                        bits(word, 12, 3)));
}

DecodeUnit::Outcome DecodeUnit::resolve(isa::Word word,
                                        const isa::DecodeResult& strict) const {
  Outcome outcome;
  outcome.status = strict.status;

  if (strict.ok()) {
    outcome.legal = true;
    outcome.instr = strict.instr;
    // Bug V1: FENCE.I's unused rd field is routed to the register write
    // port; an encoding with rd != 0 spuriously writes imm_i(word) to rd.
    if (bugs_.enabled(BugId::kV1FenceIDecode) &&
        strict.instr.mnemonic == isa::Mnemonic::kFenceI &&
        isa::rd_field(word) != 0) {
      outcome.v1_spurious_rd_write = true;
      outcome.v1_rd = isa::rd_field(word);
    }
  } else if (bugs_.enabled(BugId::kV2IllegalOpExec) && v2_candidate(word)) {
    // Bug V2: the OP/OP-32 decoder ignores the reserved funct7 bits instead
    // of trapping, executing the nearest legal encoding.
    const isa::Word f7 = isa::funct7_field(word);
    isa::Word masked_f7 = 0;
    if ((f7 & 0b0000001) != 0) {
      masked_f7 = 0b0000001;  // M-extension row
    } else if ((f7 & 0b0100000) != 0) {
      masked_f7 = 0b0100000;  // SUB/SRA row
    }
    const isa::Word masked =
        static_cast<isa::Word>((word & ~(0x7fu << 25)) | (masked_f7 << 25));
    const isa::DecodeResult relaxed = isa::decode(masked);
    if (relaxed.ok()) {
      outcome.legal = true;
      outcome.instr = relaxed.instr;
      outcome.v2_illegal_executed = true;
    }
  }
  return outcome;
}

DecodeUnit::Plan DecodeUnit::make_plan(isa::Word word,
                                       const isa::DecodeResult& strict) const {
  Plan plan;
  plan.word = word;
  plan.fpu = fpu_point(word);
  plan.outcome = resolve(word, strict);
  const Outcome& outcome = plan.outcome;
  if (outcome.legal) {
    // Conditions read the executed instruction; the toggle bucket reads the
    // fetched word (they differ when V2 fired).
    const auto m = static_cast<coverage::PointId>(outcome.instr.mnemonic);
    plan.mnemonic = cov_mnemonic_ + m;
    plan.condition = cov_condition_ + m * kConditionsPerMnemonic;
    plan.condition_mask = static_cast<std::uint8_t>(condition_mask(outcome.instr));
    plan.toggle = cov_toggle_ + m * params_.toggle_buckets +
                  static_cast<coverage::PointId>(toggle_bucket(word));
  } else {
    plan.illegal = cov_illegal_ + illegal_class_index(strict.status);
  }
  return plan;
}

DecodeUnit::Outcome DecodeUnit::decode(isa::Word word, unsigned lane,
                                       coverage::Context& ctx) {
  const Outcome outcome = resolve(word, isa::decode(word));

  if (const coverage::PointId fpu = fpu_point(word); fpu != kNoPoint) {
    ctx.hit(fpu);
  }
  if (!outcome.legal) {
    ctx.hit(cov_illegal_, static_cast<std::size_t>(lane) * kIllegalClasses +
                              illegal_class_index(outcome.status));
    return outcome;
  }
  const std::size_t lane_mnemonic =
      static_cast<std::size_t>(lane) * isa::kNumMnemonics +
      static_cast<std::size_t>(outcome.instr.mnemonic);
  ctx.hit(cov_mnemonic_, lane_mnemonic);
  ctx.hit_mask(cov_condition_, lane_mnemonic * kConditionsPerMnemonic,
               condition_mask(outcome.instr));
  ctx.hit(cov_toggle_, lane_mnemonic * params_.toggle_buckets + toggle_bucket(word));
  return outcome;
}

const DecodeUnit::Outcome& DecodeUnit::decode(isa::Word word,
                                              const isa::DecodeResult& strict,
                                              unsigned lane,
                                              coverage::Context& ctx) {
  const auto l = static_cast<coverage::PointId>(lane);
  Plan& plan = plans_[static_cast<std::size_t>(
      (static_cast<std::uint32_t>(word) * 2654435769u) >> kPlanShift)];
  if (plan.word != word) {
    plan = make_plan(word, strict);
  }

  if (plan.fpu != kNoPoint) {
    ctx.hit(plan.fpu);
  }
  const auto mnems = static_cast<coverage::PointId>(isa::kNumMnemonics);
  if (plan.outcome.legal) {
    ctx.hit(plan.mnemonic + l * mnems);
    ctx.hit_mask(plan.condition, l * mnems * kConditionsPerMnemonic,
                 plan.condition_mask);
    ctx.hit(plan.toggle + l * mnems * params_.toggle_buckets);
  } else {
    ctx.hit(plan.illegal + l * kIllegalClasses);
  }
  return plan.outcome;
}

}  // namespace mabfuzz::soc
