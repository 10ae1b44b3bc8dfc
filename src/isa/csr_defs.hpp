#pragma once
// Machine-mode CSR address map shared by the golden ISS and the substrate
// cores. The fuzzed cores run machine mode only (like the bare-metal test
// harnesses TheHuzz drives), so only M-mode and read-only user counters
// are architected; everything else is "unimplemented" — the territory bug
// V6 (X-value leak on unimplemented CSRs) lives in.

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace mabfuzz::isa {

using CsrAddr = std::uint16_t;

namespace csr {
inline constexpr CsrAddr kMstatus = 0x300;
inline constexpr CsrAddr kMisa = 0x301;
inline constexpr CsrAddr kMie = 0x304;
inline constexpr CsrAddr kMtvec = 0x305;
inline constexpr CsrAddr kMcounteren = 0x306;
inline constexpr CsrAddr kMscratch = 0x340;
inline constexpr CsrAddr kMepc = 0x341;
inline constexpr CsrAddr kMcause = 0x342;
inline constexpr CsrAddr kMtval = 0x343;
inline constexpr CsrAddr kMip = 0x344;
inline constexpr CsrAddr kMcycle = 0xB00;
inline constexpr CsrAddr kMinstret = 0xB02;
inline constexpr CsrAddr kMvendorid = 0xF11;
inline constexpr CsrAddr kMarchid = 0xF12;
inline constexpr CsrAddr kMimpid = 0xF13;
inline constexpr CsrAddr kMhartid = 0xF14;
// Read-only user-level shadows.
inline constexpr CsrAddr kCycle = 0xC00;
inline constexpr CsrAddr kTime = 0xC01;
inline constexpr CsrAddr kInstret = 0xC02;
}  // namespace csr

/// All CSR addresses architected in the modelled cores, in a stable order
/// (for per-CSR instrumentation and tests).
[[nodiscard]] std::span<const CsrAddr> implemented_csrs() noexcept;

/// True when writes are architecturally ignored / illegal (0xFxx, 0xCxx).
[[nodiscard]] bool csr_read_only(CsrAddr addr) noexcept;

/// Name for implemented CSRs, nullopt otherwise.
[[nodiscard]] std::optional<std::string_view> csr_name(CsrAddr addr) noexcept;

}  // namespace mabfuzz::isa
