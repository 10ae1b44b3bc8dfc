#pragma once
// The `serve` line protocol of harness::CampaignService, independent of
// the transport that carries it (mabfuzz_cli's Unix socket and stdin
// loops). A command is one line of space-separated tokens; every command
// gets exactly one reply line, "ok ..." or "error: ...":
//
//   submit tenant=T job=NAME artifact-out=PREFIX KEY=VALUE...
//   resume-checkpoint PATH
//   pause NAME | resume NAME | cancel NAME
//   status | drain | shutdown
//
// Lines end in '\n' (a trailing '\r' is dropped); empty lines are
// skipped. A transport buffers at most kMaxCommandLine bytes of an
// unterminated line, answers a longer one with line_too_long_reply()
// and then drops it (how is the transport's choice).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "harness/service.hpp"

namespace mabfuzz::harness {

/// Longest unterminated command line a connection may buffer. A full
/// `submit` line is well under 2 KiB; without the cap, a client that never
/// sends '\n' would grow the daemon's memory without limit.
inline constexpr std::size_t kMaxCommandLine = 64 * 1024;

/// The one reply to a line longer than kMaxCommandLine.
[[nodiscard]] std::string line_too_long_reply();

struct ServeReply {
  std::string line;       // "ok ..." or "error: ...", no newline
  bool shutdown = false;  // set by the shutdown verb
};

/// Executes one command line (without its newline) against `service`.
/// Never throws: a refused command is an "error: ..." reply.
[[nodiscard]] ServeReply handle_serve_line(CampaignService& service,
                                           std::string_view line);

/// Handles every complete line in `buffer` and erases it; returns one
/// reply per non-empty line. Whatever remains is the unterminated tail,
/// which the caller bounds by kMaxCommandLine. `shutdown` is set when a
/// line asked for it (later lines in the buffer still run).
[[nodiscard]] std::vector<std::string> drain_command_buffer(
    CampaignService& service, std::string& buffer, bool& shutdown);

}  // namespace mabfuzz::harness
