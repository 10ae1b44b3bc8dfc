#include "golden/csr.hpp"

namespace mabfuzz::golden {

namespace {
using isa::CsrAddr;
namespace csr = isa::csr;

constexpr std::uint64_t kMieMask = (1ULL << 3) | (1ULL << 7) | (1ULL << 11);
constexpr std::uint64_t kMcounterenMask = 0b111;  // CY, TM, IR
}  // namespace

CsrFile::CsrFile(CsrIdentity identity) : identity_(identity) { reset(); }

void CsrFile::reset() noexcept {
  mie_bit_ = false;
  mpie_bit_ = true;
  mie_ = 0;
  mtvec_ = isa::kHandlerBase;
  mcounteren_ = 0;
  mscratch_ = 0;
  mepc_ = 0;
  mcause_ = 0;
  mtval_ = 0;
}

CsrFile::WriteResult CsrFile::write(CsrAddr addr, std::uint64_t value) noexcept {
  // Only implemented CSRs outside the read-only ranges (CSR[11:10] ==
  // 0b11) have a case: every other address falls to kIllegal.
  switch (addr) {
    case csr::kMstatus:
      mie_bit_ = (value & kMstatusMie) != 0;
      mpie_bit_ = (value & kMstatusMpie) != 0;
      return WriteResult::kOk;
    case csr::kMisa:
      return WriteResult::kOk;  // WARL: writes ignored
    case csr::kMie:
      mie_ = value & kMieMask;
      return WriteResult::kOk;
    case csr::kMtvec:
      mtvec_ = value & ~0b11ULL;  // direct mode only
      return WriteResult::kOk;
    case csr::kMcounteren:
      mcounteren_ = value & kMcounterenMask;
      return WriteResult::kOk;
    case csr::kMscratch:
      mscratch_ = value;
      return WriteResult::kOk;
    case csr::kMepc:
      mepc_ = value & ~0b11ULL;  // IALIGN = 32
      return WriteResult::kOk;
    case csr::kMcause:
      mcause_ = value & ((1ULL << 63) - 1);
      return WriteResult::kOk;
    case csr::kMtval:
      mtval_ = value;
      return WriteResult::kOk;
    case csr::kMip:
      return WriteResult::kOk;  // no writable bits
    case csr::kMcycle:
    case csr::kMinstret:
      return WriteResult::kOk;  // hardwired counters: write ignored
    default:
      return WriteResult::kIllegal;
  }
}

void CsrFile::enter_trap(std::uint64_t pc, isa::TrapCause cause,
                         std::uint64_t tval) noexcept {
  mepc_ = pc & ~0b11ULL;
  mcause_ = static_cast<std::uint64_t>(cause);
  mtval_ = tval;
  mpie_bit_ = mie_bit_;
  mie_bit_ = false;
}

std::uint64_t CsrFile::take_mret() noexcept {
  mie_bit_ = mpie_bit_;
  mpie_bit_ = true;
  return mepc_;
}

}  // namespace mabfuzz::golden
