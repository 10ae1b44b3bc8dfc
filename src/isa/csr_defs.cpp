#include "isa/csr_defs.hpp"

#include <array>

namespace mabfuzz::isa {

namespace {
constexpr std::array<CsrAddr, 19> kImplementedCsrs = {
    csr::kMstatus, csr::kMisa,     csr::kMie,      csr::kMtvec,
    csr::kMcounteren, csr::kMscratch, csr::kMepc,  csr::kMcause,
    csr::kMtval,   csr::kMip,      csr::kMcycle,   csr::kMinstret,
    csr::kMvendorid, csr::kMarchid, csr::kMimpid,  csr::kMhartid,
    csr::kCycle,   csr::kTime,     csr::kInstret,
};
}  // namespace

std::span<const CsrAddr> implemented_csrs() noexcept { return kImplementedCsrs; }

bool csr_read_only(CsrAddr addr) noexcept {
  // Per the privileged spec, CSR[11:10] == 0b11 marks a read-only range.
  return ((addr >> 10) & 0b11) == 0b11;
}

std::optional<std::string_view> csr_name(CsrAddr addr) noexcept {
  switch (addr) {
    case csr::kMstatus: return "mstatus";
    case csr::kMisa: return "misa";
    case csr::kMie: return "mie";
    case csr::kMtvec: return "mtvec";
    case csr::kMcounteren: return "mcounteren";
    case csr::kMscratch: return "mscratch";
    case csr::kMepc: return "mepc";
    case csr::kMcause: return "mcause";
    case csr::kMtval: return "mtval";
    case csr::kMip: return "mip";
    case csr::kMcycle: return "mcycle";
    case csr::kMinstret: return "minstret";
    case csr::kMvendorid: return "mvendorid";
    case csr::kMarchid: return "marchid";
    case csr::kMimpid: return "mimpid";
    case csr::kMhartid: return "mhartid";
    case csr::kCycle: return "cycle";
    case csr::kTime: return "time";
    case csr::kInstret: return "instret";
    default: return std::nullopt;
  }
}

}  // namespace mabfuzz::isa
