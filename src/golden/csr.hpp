#pragma once
// Machine-mode CSR file for the golden ISS.
//
// Determinism note (docs/ARCHITECTURE.md): the modelled platform architecturally
// defines its timebase CSRs as functions of the retired-instruction count
// (mcycle = 2·instret, time = instret/8). Both the golden model and the
// substrate cores implement the same definition, so timing CSR reads are
// bit-identical across the differential pair and never need oracle masking.

#include <cstdint>

#include "isa/csr_defs.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::golden {

/// Per-core identity constants (marchid distinguishes the three cores).
struct CsrIdentity {
  std::uint64_t vendorid = 0;
  std::uint64_t archid = 0;
  std::uint64_t impid = 1;
  std::uint64_t hartid = 0;

  friend bool operator==(const CsrIdentity&, const CsrIdentity&) = default;
};

/// Architecturally-deterministic timebase (see header comment).
[[nodiscard]] constexpr std::uint64_t virtual_cycle(std::uint64_t instret) noexcept {
  return instret * 2;
}
[[nodiscard]] constexpr std::uint64_t virtual_time(std::uint64_t instret) noexcept {
  return instret / 8;
}

class CsrFile {
 public:
  explicit CsrFile(CsrIdentity identity = {});

  void reset() noexcept;

  /// CSR read into `value`; `instret` feeds the counter CSRs. False (with
  /// `value` untouched) => the access must raise an illegal-instruction
  /// exception. Inline, and a bool plus an out-parameter rather than a
  /// std::optional: GCC builds the optional on the stack with a byte store
  /// and copies it with a wider load, even inlined, which stalls every CSR
  /// instruction of both simulators.
  [[nodiscard]] bool read(isa::CsrAddr addr, std::uint64_t instret,
                          std::uint64_t& value) const noexcept {
    namespace csr = isa::csr;
    switch (addr) {
      case csr::kMstatus: value = mstatus(); return true;
      case csr::kMisa: value = kMisaValue; return true;
      case csr::kMie: value = mie_; return true;
      case csr::kMtvec: value = mtvec_; return true;
      case csr::kMcounteren: value = mcounteren_; return true;
      case csr::kMscratch: value = mscratch_; return true;
      case csr::kMepc: value = mepc_; return true;
      case csr::kMcause: value = mcause_; return true;
      case csr::kMtval: value = mtval_; return true;
      case csr::kMip: value = 0; return true;  // no interrupt sources in the model
      case csr::kMcycle: value = virtual_cycle(instret); return true;
      case csr::kMinstret: value = instret; return true;
      case csr::kMvendorid: value = identity_.vendorid; return true;
      case csr::kMarchid: value = identity_.archid; return true;
      case csr::kMimpid: value = identity_.impid; return true;
      case csr::kMhartid: value = identity_.hartid; return true;
      case csr::kCycle: value = virtual_cycle(instret); return true;
      case csr::kTime: value = virtual_time(instret); return true;
      case csr::kInstret: value = instret; return true;
      default: return false;
    }
  }

  enum class WriteResult : std::uint8_t { kOk, kIllegal };

  /// CSR write with WARL masking. Writes to the read-only ranges are
  /// illegal; writes to the hardwired counters are accepted and ignored
  /// (a WARL-legal implementation choice shared with the substrate cores).
  WriteResult write(isa::CsrAddr addr, std::uint64_t value) noexcept;

  /// Trap entry: saves pc/cause/tval, stacks MIE per the privileged spec.
  void enter_trap(std::uint64_t pc, isa::TrapCause cause, std::uint64_t tval) noexcept;

  /// MRET: unstacks MIE and returns the resume pc (mepc).
  std::uint64_t take_mret() noexcept;

  [[nodiscard]] std::uint64_t mstatus() const noexcept {
    std::uint64_t v = kMstatusMppMachine;  // MPP is hardwired to M.
    if (mie_bit_) {
      v |= kMstatusMie;
    }
    if (mpie_bit_) {
      v |= kMstatusMpie;
    }
    return v;
  }
  [[nodiscard]] std::uint64_t mepc() const noexcept { return mepc_; }
  [[nodiscard]] std::uint64_t mcause() const noexcept { return mcause_; }
  [[nodiscard]] std::uint64_t mtval() const noexcept { return mtval_; }
  [[nodiscard]] std::uint64_t mtvec() const noexcept { return mtvec_; }
  [[nodiscard]] std::uint64_t mscratch() const noexcept { return mscratch_; }

  /// Every field equal: the two files answer every read and write alike.
  friend bool operator==(const CsrFile&, const CsrFile&) = default;

 private:
  static constexpr std::uint64_t kMstatusMie = 1ULL << 3;
  static constexpr std::uint64_t kMstatusMpie = 1ULL << 7;
  static constexpr std::uint64_t kMstatusMppMachine = 0b11ULL << 11;
  // RV64IM: MXL=2 in bits [63:62], extensions I and M.
  static constexpr std::uint64_t kMisaValue =
      (2ULL << 62) | (1ULL << ('i' - 'a')) | (1ULL << ('m' - 'a'));

  CsrIdentity identity_;
  bool mie_bit_ = false;   // mstatus.MIE
  bool mpie_bit_ = true;   // mstatus.MPIE
  std::uint64_t mie_ = 0;
  std::uint64_t mtvec_ = isa::kHandlerBase;
  std::uint64_t mcounteren_ = 0;
  std::uint64_t mscratch_ = 0;
  std::uint64_t mepc_ = 0;
  std::uint64_t mcause_ = 0;
  std::uint64_t mtval_ = 0;
};

}  // namespace mabfuzz::golden
