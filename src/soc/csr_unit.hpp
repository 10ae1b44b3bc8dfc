#pragma once
// The substrate core's CSR unit. Architectural semantics are delegated to
// golden::CsrFile (the platform's CSR bookkeeping is pure state; sharing it
// removes a class of accidental drift), while this unit adds
// what the RTL has and the ISS does not: per-CSR address-decode coverage,
// written-value toggle coverage, trap-entry coverage, and the V6 bug gate
// (unimplemented custom-range CSRs return X-values instead of trapping).

#include <array>
#include <cstdint>

#include "coverage/context.hpp"
#include "golden/csr.hpp"
#include "isa/opcode.hpp"
#include "soc/bugs.hpp"

namespace mabfuzz::soc {

class CsrUnit {
 public:
  CsrUnit(const golden::CsrIdentity& identity, BugSet bugs,
          coverage::Context& ctx);

  void reset() noexcept { file_.reset(); }

  struct AccessOutcome {
    bool illegal = false;
    bool v6_fired = false;
    std::uint64_t old_value = 0;
  };

  /// Executes the read/modify/write protocol of one Zicsr instruction.
  /// `operand` is rs1's value (or the zimm); `write_form` marks CSRRW/CSRRWI
  /// (which write unconditionally); `performs_write` is false for
  /// CSRRS/CSRRC with rs1 = x0.
  AccessOutcome access(const isa::Instruction& instr, std::uint64_t operand,
                       bool write_form, bool performs_write,
                       std::uint64_t instret, coverage::Context& ctx);

  void enter_trap(std::uint64_t pc, std::uint64_t cause, std::uint64_t tval,
                  coverage::Context& ctx);

  [[nodiscard]] std::uint64_t take_mret(coverage::Context& ctx);

  [[nodiscard]] std::uint64_t mstatus() const noexcept { return file_.mstatus(); }
  [[nodiscard]] std::uint64_t mepc() const noexcept { return file_.mepc(); }
  [[nodiscard]] std::uint64_t mcause() const noexcept { return file_.mcause(); }
  [[nodiscard]] std::uint64_t mtval() const noexcept { return file_.mtval(); }
  [[nodiscard]] std::uint64_t mtvec() const noexcept { return file_.mtvec(); }
  [[nodiscard]] std::uint64_t mscratch() const noexcept { return file_.mscratch(); }

  /// Steady-state loop support (isa/loop_probe.hpp): the architectural
  /// file is the unit's only state.
  void capture(golden::CsrFile& out) const noexcept { out = file_; }
  [[nodiscard]] bool matches(const golden::CsrFile& snapshot) const noexcept {
    return file_ == snapshot;
  }

  /// True when `addr` falls in the unimplemented custom/counter ranges whose
  /// accesses the V6 bug turns into X-value reads (0x7C0-0x7FF, 0xB03-0xBFF).
  [[nodiscard]] static bool in_v6_window(isa::CsrAddr addr) noexcept;

  /// The deterministic "X" pattern V6 leaks for `addr`.
  [[nodiscard]] static std::uint64_t x_value(isa::CsrAddr addr) noexcept;

 private:
  golden::CsrFile file_;
  BugSet bugs_;
  // Index of each 12-bit CSR address in isa::implemented_csrs() (a handful
  // of entries), or -1: one load instead of a scan per CSR instruction.
  std::array<std::int8_t, 4096> index_of_{};

  coverage::PointId cov_read_ = 0;        // per implemented CSR
  coverage::PointId cov_write_ = 0;       // per implemented CSR
  coverage::PointId cov_value_toggle_ = 0;// per implemented CSR * 8 buckets
  coverage::PointId cov_illegal_region_ = 0;  // per addr>>8 region (16)
  coverage::PointId cov_custom_range_ = 0;    // per low nibble of custom-range addr
  coverage::PointId cov_trap_cause_ = 0;  // per cause (16)
  coverage::PointId cov_trap_in_handler_ = 0; // nested-trap corner
  coverage::PointId cov_mret_ = 0;        // single
};

}  // namespace mabfuzz::soc
