#include "common/cli.hpp"

#include <charconv>
#include <stdexcept>

namespace mabfuzz::common {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const auto pos = text.find(delim);
    out.emplace_back(text.substr(0, pos));
    if (pos == std::string_view::npos) {
      break;
    }
    text.remove_prefix(pos + 1);
  }
  return out;
}

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      throw std::invalid_argument("bare '--' is not a valid option");
    }
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      options_.emplace(std::string(arg.substr(0, eq)),
                       std::string(arg.substr(eq + 1)));
      continue;
    }
    // "--key value" unless the next token is itself an option or absent,
    // in which case this is a boolean flag.
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      options_.emplace(std::string(arg), std::string(argv[++i]));
    } else {
      options_.emplace(std::string(arg), "true");
    }
  }
}

bool CliArgs::has(std::string_view key) const {
  return options_.find(key) != options_.end();
}

std::optional<std::string> CliArgs::get(std::string_view key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string CliArgs::get_string(std::string_view key, std::string fallback) const {
  auto v = get(key);
  return v ? *v : std::move(fallback);
}

std::uint64_t CliArgs::get_uint(std::string_view key, std::uint64_t fallback) const {
  const auto v = get(key);
  if (!v) {
    return fallback;
  }
  std::uint64_t out = 0;
  const char* last = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), last, out);
  if (ec != std::errc{} || ptr != last) {
    throw std::invalid_argument("option --" + std::string(key) +
                                ": cannot parse '" + *v + "'");
  }
  return out;
}

bool CliArgs::get_bool(std::string_view key, bool fallback) const {
  auto v = get(key);
  if (!v) {
    return fallback;
  }
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") {
    return true;
  }
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") {
    return false;
  }
  throw std::invalid_argument("option --" + std::string(key) +
                              ": expected a boolean, got '" + *v + "'");
}

}  // namespace mabfuzz::common
