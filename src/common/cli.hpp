#pragma once
// Minimal command-line parsing for the benchmark harnesses and examples.
// Supports "--key value", "--key=value" and boolean "--flag" forms.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mabfuzz::common {

/// Splits on `delim` with std::getline semantics: interior empty tokens
/// are preserved ("a,,b" -> {"a","","b"}), a trailing delimiter adds
/// nothing, and empty input yields an empty list. The one tokenizer
/// behind every comma-separated flag value (bug lists, length lists,
/// fuzzer axes).
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

class CliArgs {
 public:
  /// Parses argv; unknown arguments are retained and can be inspected.
  /// Throws std::invalid_argument on a malformed option ("--" alone).
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view key) const;

  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;

  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;

  /// Throws std::invalid_argument when present but unparsable.
  [[nodiscard]] std::uint64_t get_uint(std::string_view key,
                                       std::uint64_t fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Positional (non --key) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string, std::less<>> options_;
  std::vector<std::string> positional_;
};

}  // namespace mabfuzz::common
