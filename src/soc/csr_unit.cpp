#include "soc/csr_unit.hpp"

#include "isa/csr_defs.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::soc {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

CsrUnit::CsrUnit(const golden::CsrIdentity& identity, BugSet bugs,
                 coverage::Context& ctx)
    : file_(identity), bugs_(bugs) {
  const auto implemented = isa::implemented_csrs();
  index_of_.fill(-1);
  for (std::size_t i = 0; i < implemented.size(); ++i) {
    index_of_[implemented[i] & 0xfff] = static_cast<std::int8_t>(i);
  }
  auto& reg = ctx.registry();
  const std::size_t n = implemented.size();
  cov_read_ = reg.add_array("csr/read", n);
  cov_write_ = reg.add_array("csr/write", n);
  cov_value_toggle_ = reg.add_array("csr/value_toggle", n * 8);
  cov_illegal_region_ = reg.add_array("csr/illegal_region", 16);
  cov_custom_range_ = reg.add_array("csr/custom_range_decode", 16);
  cov_trap_cause_ = reg.add_array("csr/trap_cause", 16);
  cov_trap_in_handler_ = reg.add("csr/trap_inside_handler");
  cov_mret_ = reg.add("csr/mret");
}

bool CsrUnit::in_v6_window(isa::CsrAddr addr) noexcept {
  return (addr >= 0x7C0 && addr <= 0x7FF) || (addr >= 0xB03 && addr <= 0xBFF);
}

std::uint64_t CsrUnit::x_value(isa::CsrAddr addr) noexcept {
  // Deterministic "uninitialised flop" pattern keyed on the address.
  return 0xBADC0FFEE0DDF00DULL ^ mix64(addr);
}

CsrUnit::AccessOutcome CsrUnit::access(const isa::Instruction& instr,
                                       std::uint64_t operand, bool write_form,
                                       bool performs_write, std::uint64_t instret,
                                       coverage::Context& ctx) {
  AccessOutcome outcome;
  const isa::CsrAddr addr = instr.csr & 0xfff;
  const int index = index_of_[addr];

  if (index < 0) {
    if (in_v6_window(addr)) {
      ctx.hit(cov_custom_range_, addr & 0xf);
      if (bugs_.enabled(BugId::kV6CsrXValue)) {
        // Bug V6: the custom/counter decode range is not gated by an
        // "implemented" check; reads observe uninitialised state and
        // writes are silently dropped. No trap is raised.
        outcome.v6_fired = true;
        outcome.old_value = x_value(addr);
        return outcome;
      }
    }
    ctx.hit(cov_illegal_region_, (addr >> 8) & 0xf);
    outcome.illegal = true;
    return outcome;
  }

  std::uint64_t old = 0;
  if (!file_.read(addr, instret, old)) {
    outcome.illegal = true;  // unreachable for implemented CSRs; keep safe
    return outcome;
  }
  ctx.hit(cov_read_, static_cast<std::size_t>(index));
  outcome.old_value = old;

  if (performs_write) {
    std::uint64_t new_value = operand;
    if (instr.mnemonic == isa::Mnemonic::kCsrrs ||
        instr.mnemonic == isa::Mnemonic::kCsrrsi) {
      new_value = old | operand;
    } else if (instr.mnemonic == isa::Mnemonic::kCsrrc ||
               instr.mnemonic == isa::Mnemonic::kCsrrci) {
      new_value = old & ~operand;
    } else if (!write_form) {
      new_value = operand;
    }
    if (file_.write(addr, new_value) == golden::CsrFile::WriteResult::kIllegal) {
      outcome.illegal = true;
      return outcome;
    }
    ctx.hit(cov_write_, static_cast<std::size_t>(index));
    ctx.hit(cov_value_toggle_,
            static_cast<std::size_t>(index) * 8 + (mix64(new_value) & 0x7));
  }
  return outcome;
}

void CsrUnit::enter_trap(std::uint64_t pc, std::uint64_t cause, std::uint64_t tval,
                         coverage::Context& ctx) {
  ctx.hit(cov_trap_cause_, cause & 0xf);
  if (pc >= isa::kHandlerBase && pc < isa::kProgramBase) {
    ctx.hit(cov_trap_in_handler_);
  }
  file_.enter_trap(pc, static_cast<isa::TrapCause>(cause), tval);
}

std::uint64_t CsrUnit::take_mret(coverage::Context& ctx) {
  ctx.hit(cov_mret_);
  return file_.take_mret();
}

}  // namespace mabfuzz::soc
