#include "soc/exec_unit.hpp"

#include <bit>
#include <limits>

#include "common/bitops.hpp"

namespace mabfuzz::soc {

using common::sext32;
using isa::Mnemonic;

namespace {

__extension__ using Int128 = __int128;
__extension__ using Uint128 = unsigned __int128;

constexpr unsigned kConditions = 6;
constexpr unsigned kDivLatencyBuckets = 9;
constexpr unsigned kMulClasses = 4;

std::uint64_t mix_result(std::uint64_t r) noexcept {
  r ^= r >> 17;
  r *= 0x9e3779b97f4a7c15ULL;
  r ^= r >> 29;
  return r;
}

struct MulDiv {
  // The divide unit is an early-exit iterative divider: latency depends on
  // the dividend's magnitude (bits to shift through).
  static unsigned div_latency(std::uint64_t dividend) noexcept {
    const unsigned significant =
        dividend == 0 ? 0 : 64 - static_cast<unsigned>(std::countl_zero(dividend));
    return 4 + significant / 8;  // 4..12
  }

  static std::uint64_t mulhss(std::uint64_t a, std::uint64_t b) noexcept {
    const Int128 p = static_cast<Int128>(static_cast<std::int64_t>(a)) *
                       static_cast<Int128>(static_cast<std::int64_t>(b));
    return static_cast<std::uint64_t>(static_cast<Uint128>(p) >> 64);
  }
  static std::uint64_t mulhsu(std::uint64_t a, std::uint64_t b) noexcept {
    const Int128 p = static_cast<Int128>(static_cast<std::int64_t>(a)) *
                       static_cast<Int128>(static_cast<Uint128>(b));
    return static_cast<std::uint64_t>(static_cast<Uint128>(p) >> 64);
  }
  static std::uint64_t mulhuu(std::uint64_t a, std::uint64_t b) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<Uint128>(a) * static_cast<Uint128>(b)) >>
        64);
  }
};

}  // namespace

ExecUnit::ExecUnit(const ExecUnitParams& params, coverage::Context& ctx)
    : params_(params), toggle_mod_(common::FastMod(params.toggle_buckets)) {
  auto& reg = ctx.registry();
  const std::size_t mnems = isa::kNumMnemonics;
  cov_condition_ = reg.add_array("exec/condition",
                                 params_.lanes * mnems * kConditions);
  cov_toggle_ =
      reg.add_array("exec/toggle", params_.lanes * mnems * params_.toggle_buckets);
  cov_div_latency_ =
      reg.add_array("exec/div_latency", params_.lanes * kDivLatencyBuckets);
  cov_mul_path_ = reg.add_array("exec/mul_operand_class",
                                params_.lanes * kMulClasses);
}

void ExecUnit::hit_result_points(const isa::Instruction& instr, std::uint64_t a,
                                 std::uint64_t b, std::uint64_t result,
                                 unsigned lane, coverage::Context& ctx) {
  const auto m = static_cast<std::size_t>(instr.mnemonic);
  const std::size_t base =
      (static_cast<std::size_t>(lane) * isa::kNumMnemonics + m) * kConditions;
  // The six result conditions, sub-point i in bit i, emitted as one OR.
  const std::uint64_t conditions =
      (result == 0 ? 1u : 0u) | ((result >> 63) != 0 ? 2u : 0u) |
      (a == b ? 4u : 0u) | (b == 0 ? 8u : 0u) | (a == 0 ? 16u : 0u) |
      (result == a ? 32u : 0u);
  ctx.hit_mask(cov_condition_, base, conditions);
  const std::size_t bucket =
      static_cast<std::size_t>(toggle_mod_(mix_result(result)));
  ctx.hit(cov_toggle_,
          (static_cast<std::size_t>(lane) * isa::kNumMnemonics + m) *
                  params_.toggle_buckets +
              bucket);
}

ExecUnit::Result ExecUnit::execute(const isa::Instruction& instr, std::uint64_t pc,
                                   std::uint64_t a, std::uint64_t b, unsigned lane,
                                   coverage::Context& ctx) {
  const auto imm = static_cast<std::uint64_t>(instr.imm);
  Result res;

  switch (instr.mnemonic) {
    // --- upper / link ---------------------------------------------------
    case Mnemonic::kLui: res.value = imm; break;
    case Mnemonic::kAuipc: res.value = pc + imm; break;
    case Mnemonic::kJal:
    case Mnemonic::kJalr: res.value = pc + 4; break;

    // --- branch comparator (value = taken) ------------------------------
    case Mnemonic::kBeq: res.value = a == b; break;
    case Mnemonic::kBne: res.value = a != b; break;
    case Mnemonic::kBlt:
      res.value = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      break;
    case Mnemonic::kBge:
      res.value = static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
      break;
    case Mnemonic::kBltu: res.value = a < b; break;
    case Mnemonic::kBgeu: res.value = a >= b; break;

    // --- ALU, immediate forms -------------------------------------------
    case Mnemonic::kAddi: res.value = a + imm; break;
    case Mnemonic::kSlti:
      res.value = static_cast<std::int64_t>(a) < instr.imm ? 1 : 0;
      break;
    case Mnemonic::kSltiu: res.value = a < imm ? 1 : 0; break;
    case Mnemonic::kXori: res.value = a ^ imm; break;
    case Mnemonic::kOri: res.value = a | imm; break;
    case Mnemonic::kAndi: res.value = a & imm; break;
    case Mnemonic::kSlli: res.value = a << (imm & 0x3f); break;
    case Mnemonic::kSrli: res.value = a >> (imm & 0x3f); break;
    case Mnemonic::kSrai:
      res.value =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> (imm & 0x3f));
      break;

    // --- ALU, register forms ----------------------------------------------
    case Mnemonic::kAdd: res.value = a + b; break;
    case Mnemonic::kSub: res.value = a - b; break;
    case Mnemonic::kSll: res.value = a << (b & 0x3f); break;
    case Mnemonic::kSlt:
      res.value = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      break;
    case Mnemonic::kSltu: res.value = a < b; break;
    case Mnemonic::kXor: res.value = a ^ b; break;
    case Mnemonic::kSrl: res.value = a >> (b & 0x3f); break;
    case Mnemonic::kSra:
      res.value =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> (b & 0x3f));
      break;
    case Mnemonic::kOr: res.value = a | b; break;
    case Mnemonic::kAnd: res.value = a & b; break;

    // --- 32-bit "W" forms --------------------------------------------------
    case Mnemonic::kAddiw:
      res.value = static_cast<std::uint64_t>(sext32(a + imm));
      break;
    case Mnemonic::kSlliw:
      res.value = static_cast<std::uint64_t>(sext32(a << (imm & 0x1f)));
      break;
    case Mnemonic::kSrliw:
      res.value = static_cast<std::uint64_t>(
          sext32(static_cast<std::uint32_t>(a) >> (imm & 0x1f)));
      break;
    case Mnemonic::kSraiw:
      res.value = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int32_t>(a) >> (imm & 0x1f)));
      break;
    case Mnemonic::kAddw:
      res.value = static_cast<std::uint64_t>(sext32(a + b));
      break;
    case Mnemonic::kSubw:
      res.value = static_cast<std::uint64_t>(sext32(a - b));
      break;
    case Mnemonic::kSllw:
      res.value = static_cast<std::uint64_t>(sext32(a << (b & 0x1f)));
      break;
    case Mnemonic::kSrlw:
      res.value = static_cast<std::uint64_t>(
          sext32(static_cast<std::uint32_t>(a) >> (b & 0x1f)));
      break;
    case Mnemonic::kSraw:
      res.value = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int32_t>(a) >> (b & 0x1f)));
      break;

    // --- multiply ----------------------------------------------------------
    case Mnemonic::kMul:
    case Mnemonic::kMulh:
    case Mnemonic::kMulhsu:
    case Mnemonic::kMulhu:
    case Mnemonic::kMulw: {
      res.latency = 3;
      const unsigned klass = ((a >> 63) << 1) | (b >> 63);
      ctx.hit(cov_mul_path_, static_cast<std::size_t>(lane) * kMulClasses + klass);
      switch (instr.mnemonic) {
        case Mnemonic::kMul: res.value = a * b; break;
        case Mnemonic::kMulh: res.value = MulDiv::mulhss(a, b); break;
        case Mnemonic::kMulhsu: res.value = MulDiv::mulhsu(a, b); break;
        case Mnemonic::kMulhu: res.value = MulDiv::mulhuu(a, b); break;
        default: res.value = static_cast<std::uint64_t>(sext32(a * b)); break;
      }
      break;
    }

    // --- divide --------------------------------------------------------------
    case Mnemonic::kDiv:
    case Mnemonic::kDivu:
    case Mnemonic::kRem:
    case Mnemonic::kRemu:
    case Mnemonic::kDivw:
    case Mnemonic::kDivuw:
    case Mnemonic::kRemw:
    case Mnemonic::kRemuw: {
      res.latency = MulDiv::div_latency(a);
      ctx.hit(cov_div_latency_,
              static_cast<std::size_t>(lane) * kDivLatencyBuckets +
                  (res.latency - 4));
      switch (instr.mnemonic) {
        case Mnemonic::kDiv:
          if (b == 0) {
            res.value = ~0ULL;
          } else if (a == (1ULL << 63) && static_cast<std::int64_t>(b) == -1) {
            res.value = 1ULL << 63;
          } else {
            res.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(a) /
                                                   static_cast<std::int64_t>(b));
          }
          break;
        case Mnemonic::kDivu: res.value = b == 0 ? ~0ULL : a / b; break;
        case Mnemonic::kRem:
          if (b == 0) {
            res.value = a;
          } else if (a == (1ULL << 63) && static_cast<std::int64_t>(b) == -1) {
            res.value = 0;
          } else {
            res.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(a) %
                                                   static_cast<std::int64_t>(b));
          }
          break;
        case Mnemonic::kRemu: res.value = b == 0 ? a : a % b; break;
        case Mnemonic::kDivw: {
          const auto x = static_cast<std::int32_t>(a);
          const auto y = static_cast<std::int32_t>(b);
          if (y == 0) {
            res.value = static_cast<std::uint64_t>(-1LL);
          } else if (x == std::numeric_limits<std::int32_t>::min() && y == -1) {
            res.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
          } else {
            res.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(x / y));
          }
          break;
        }
        case Mnemonic::kDivuw: {
          const auto x = static_cast<std::uint32_t>(a);
          const auto y = static_cast<std::uint32_t>(b);
          res.value = y == 0 ? ~0ULL : static_cast<std::uint64_t>(sext32(x / y));
          break;
        }
        case Mnemonic::kRemw: {
          const auto x = static_cast<std::int32_t>(a);
          const auto y = static_cast<std::int32_t>(b);
          if (y == 0) {
            res.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
          } else if (x == std::numeric_limits<std::int32_t>::min() && y == -1) {
            res.value = 0;
          } else {
            res.value = static_cast<std::uint64_t>(static_cast<std::int64_t>(x % y));
          }
          break;
        }
        default: {  // kRemuw
          const auto x = static_cast<std::uint32_t>(a);
          const auto y = static_cast<std::uint32_t>(b);
          res.value = static_cast<std::uint64_t>(sext32(y == 0 ? x : x % y));
          break;
        }
      }
      break;
    }

    default:
      // Loads/stores/CSR/system are executed by their own units.
      break;
  }

  hit_result_points(instr, a, b, res.value, lane, ctx);
  return res;
}

}  // namespace mabfuzz::soc
