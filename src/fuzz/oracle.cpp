#include "fuzz/oracle.hpp"

#include <cstdio>
#include <string>

#include "isa/disasm.hpp"
#include "isa/platform.hpp"

namespace mabfuzz::fuzz {

namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What differs between a record verdict's pair, which isa::differs found
/// unequal, in the order the fields are checked.
std::string diff_commit(const isa::CommitRecord& dut,
                        const isa::CommitRecord& golden) {
  if (dut.pc != golden.pc) {
    return "pc " + hex(dut.pc) + " vs " + hex(golden.pc);
  }
  if (dut.word != golden.word) {
    return "fetched word " + hex(dut.word) + " vs " + hex(golden.word);
  }
  if (dut.trapped != golden.trapped) {
    return std::string("trap taken: dut=") + (dut.trapped ? "yes" : "no") +
           " golden=" + (golden.trapped ? "yes" : "no");
  }
  if (dut.trapped && dut.cause != golden.cause) {
    return "trap cause " +
           std::string(isa::trap_cause_name(static_cast<isa::TrapCause>(dut.cause))) +
           " vs " +
           std::string(
               isa::trap_cause_name(static_cast<isa::TrapCause>(golden.cause)));
  }
  if (dut.wrote_rd != golden.wrote_rd || (dut.wrote_rd && dut.rd != golden.rd)) {
    return "rd write target mismatch";
  }
  if (dut.wrote_rd && dut.rd_value != golden.rd_value) {
    std::string text = "x";
    text += std::to_string(dut.rd);
    text += " = ";
    text += hex(dut.rd_value);
    text += " vs ";
    text += hex(golden.rd_value);
    return text;
  }
  if (dut.wrote_mem != golden.wrote_mem) {
    return "memory write presence mismatch";
  }
  // Only the memory write's address, value or width is left to differ.
  std::string text = "mem[";
  text += hex(dut.mem_addr);
  text += "] = ";
  text += hex(dut.mem_value);
  text += " vs mem[";
  text += hex(golden.mem_addr);
  text += "] = ";
  text += hex(golden.mem_value);
  return text;
}

}  // namespace

std::string describe_commit(const isa::CommitRecord& record) {
  // Appended piece by piece rather than through a std::ostringstream,
  // whose construction dominates this on the mismatch path.
  std::string text = hex(record.pc);
  text += ": ";
  text += isa::disassemble_word(record.word);
  if (record.trapped) {
    text += " [trap ";
    text += isa::trap_cause_name(static_cast<isa::TrapCause>(record.cause));
    text += "]";
  }
  if (record.wrote_rd) {
    text += " x";
    text += std::to_string(static_cast<int>(record.rd));
    text += "=";
    text += hex(record.rd_value);
  }
  if (record.wrote_mem) {
    text += " mem[";
    text += hex(record.mem_addr);
    text += "]=";
    text += hex(record.mem_value);
  }
  return text;
}

std::string describe(const Mismatch& mismatch) {
  if (!mismatch.text.empty()) {
    return mismatch.text;
  }
  // Built up incrementally (GCC 12's -Wrestrict mis-fires on long
  // operator+ chains under -O3).
  std::string text = "commit ";
  text += std::to_string(mismatch.commit_index);
  text += " (";
  text += describe_commit(mismatch.golden);
  text += "): ";
  text += diff_commit(mismatch.dut, mismatch.golden);
  return text;
}

std::optional<Mismatch> compare(const isa::ArchResult& dut,
                                const isa::ArchResult& golden, std::size_t start) {
  const std::size_t n = std::min(dut.commits.size(), golden.commits.size());
  for (std::size_t i = start; i < n; ++i) {
    if (isa::differs(dut.commits[i], golden.commits[i])) {
      Mismatch m;
      m.commit_index = i;
      m.dut = dut.commits[i];
      m.golden = golden.commits[i];
      return m;
    }
  }
  if (dut.commits.size() != golden.commits.size()) {
    Mismatch m;
    m.commit_index = n;
    m.text = "trace length " + std::to_string(dut.commits.size()) + " vs " +
             std::to_string(golden.commits.size());
    return m;
  }

  auto end_state = [&]() -> std::optional<std::string> {
    if (dut.halt != golden.halt) {
      return std::string("halt reason differs");
    }
    // Note: instret itself is NOT compared. The testbench only observes
    // counters architecturally, i.e. when the program reads them — exactly
    // how TheHuzz's SPIKE comparison works. (This is what makes V7 an
    // exploration-heavy bug: EBREAK alone is silent; a counter read after
    // an EBREAK is needed to expose the miscount.)
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
      if (dut.regs[r] != golden.regs[r]) {
        return "final x" + std::to_string(r) + " = " + hex(dut.regs[r]) +
               " vs " + hex(golden.regs[r]);
      }
    }
    if (dut.mstatus != golden.mstatus) return std::string("final mstatus differs");
    if (dut.mepc != golden.mepc) return std::string("final mepc differs");
    if (dut.mcause != golden.mcause) return std::string("final mcause differs");
    if (dut.mtval != golden.mtval) return std::string("final mtval differs");
    if (dut.mtvec != golden.mtvec) return std::string("final mtvec differs");
    if (dut.mscratch != golden.mscratch) return std::string("final mscratch differs");
    return std::nullopt;
  };

  if (auto diff = end_state()) {
    Mismatch m;
    m.commit_index = static_cast<std::size_t>(-1);
    m.text = "end state: " + *diff;
    return m;
  }
  return std::nullopt;
}

}  // namespace mabfuzz::fuzz
