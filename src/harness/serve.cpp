#include "harness/serve.hpp"

#include <exception>
#include <utility>

#include "common/cli.hpp"

namespace mabfuzz::harness {

namespace {

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens = common::split(line, ' ');
  std::erase(tokens, "");
  return tokens;
}

std::string execute(CampaignService& service,
                    const std::vector<std::string>& tokens, bool& shutdown) {
  const std::string& verb = tokens.front();
  if (verb == "submit") {
    JobSpec spec;
    spec.tenant = "default";
    std::vector<std::string> pairs;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string& token = tokens[i];
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        return "error: expected key=value, got '" + token + "'";
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "tenant") {
        spec.tenant = value;
      } else if (key == "job") {
        spec.name = value;
      } else if (key == "artifact-out") {
        spec.artifact_out = value;
      } else {
        pairs.push_back(token);  // campaign vocabulary
      }
    }
    if (spec.name.empty()) {
      return "error: submit requires job=<name>";
    }
    spec.config = CampaignConfig::from_pairs(pairs);
    std::string name = spec.name;
    service.submit(std::move(spec));
    return "ok submitted " + name;
  }
  if (verb == "resume-checkpoint") {
    if (tokens.size() != 2) {
      return "error: usage: resume-checkpoint PATH";
    }
    return "ok resumed " + service.resume_from_checkpoint(tokens[1]);
  }
  if (verb == "pause" || verb == "resume" || verb == "cancel") {
    if (tokens.size() != 2) {
      return "error: usage: " + verb + " NAME";
    }
    const bool applied = verb == "pause"    ? service.pause(tokens[1])
                         : verb == "resume" ? service.resume(tokens[1])
                                            : service.cancel(tokens[1]);
    return applied ? "ok " + verb + " requested"
                   : "error: job '" + tokens[1] +
                         "' is unknown or already terminal";
  }
  if (verb == "status") {
    std::string reply = "ok";
    for (const JobStatus& job : service.jobs()) {
      reply += ' ';
      reply += job.name;
      reply += ':';
      reply += job_state_name(job.state);
      reply += ':';
      reply += std::to_string(job.tests_executed);
      reply += '/';
      reply += std::to_string(job.max_tests);
    }
    return reply;
  }
  if (verb == "drain") {
    service.drain();
    return "ok drained";
  }
  if (verb == "shutdown") {
    shutdown = true;
    return "ok shutting down";
  }
  return "error: unknown command '" + verb +
         "' (submit, resume-checkpoint, pause, resume, cancel, status, "
         "drain, shutdown)";
}

}  // namespace

std::string line_too_long_reply() {
  return "error: command line longer than " +
         std::to_string(kMaxCommandLine) + " bytes";
}

ServeReply handle_serve_line(CampaignService& service, std::string_view line) {
  ServeReply reply;
  const std::vector<std::string> tokens = split_tokens(line);
  if (tokens.empty()) {
    reply.line = "error: empty command";
    return reply;
  }
  try {
    reply.line = execute(service, tokens, reply.shutdown);
  } catch (const std::exception& e) {
    reply.line = std::string("error: ") + e.what();
  }
  return reply;
}

std::vector<std::string> drain_command_buffer(CampaignService& service,
                                              std::string& buffer,
                                              bool& shutdown) {
  std::vector<std::string> replies;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buffer.find('\n', start);
    if (nl == std::string::npos) {
      break;
    }
    std::string_view line(buffer.data() + start, nl - start);
    if (line.ends_with('\r')) {
      line.remove_suffix(1);
    }
    if (!line.empty()) {
      ServeReply reply = handle_serve_line(service, line);
      shutdown = shutdown || reply.shutdown;
      replies.push_back(std::move(reply.line));
    }
    start = nl + 1;
  }
  buffer.erase(0, start);
  return replies;
}

}  // namespace mabfuzz::harness
