#pragma once
// Instruction encoder: Instruction -> 32-bit word.

#include <optional>

#include "isa/opcode.hpp"

namespace mabfuzz::isa {

/// Encodes `instr`. Returns nullopt when an operand cannot be represented
/// (immediate out of range, misaligned branch/jump offset, shamt too wide).
/// Register indices are masked to 5 bits; CSR addresses to 12 bits.
[[nodiscard]] std::optional<Word> encode(const Instruction& instr) noexcept;

/// Encoder for trusted inputs (tests, examples): on failure it writes the
/// instruction and its immediate to stderr and aborts, so that malformed
/// literals are caught immediately.
[[nodiscard]] Word encode_or_die(const Instruction& instr) noexcept;

/// True when `instr`'s operands are representable in its format.
[[nodiscard]] bool encodable(const Instruction& instr) noexcept;

}  // namespace mabfuzz::isa
