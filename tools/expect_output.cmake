# Runs a command and fails unless it exits 0 and its standard output
# matches EXPECT_REGEX (a CMake regular expression, as CTest's
# PASS_REGULAR_EXPRESSION takes):
#
#   cmake -DEXPECT_REGEX=<regex> -P tools/expect_output.cmake -- <command> [args...]
#
# PASS_REGULAR_EXPRESSION on its own makes CTest ignore the exit status, so
# a smoke test that prints its pattern and then crashes or exits nonzero
# would pass. mabfuzz_add_smoke_test in the top-level CMakeLists.txt
# registers smoke tests through this script instead.

if(NOT DEFINED EXPECT_REGEX)
  message(FATAL_ERROR "expect_output: EXPECT_REGEX is not set")
endif()

# Everything after the first "--" is the command.
set(command)
set(in_command FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(in_command)
    # An argument's own semicolons must not split it into list items.
    string(REPLACE ";" "\\;" arg "${CMAKE_ARGV${i}}")
    list(APPEND command "${arg}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_output: no command after --")
endif()

# The command's stdout is echoed as it is captured; its stderr passes
# through.
execute_process(COMMAND ${command}
  OUTPUT_VARIABLE output
  ECHO_OUTPUT_VARIABLE
  RESULT_VARIABLE status)

if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expect_output: the command exited with '${status}'")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR
    "expect_output: the output does not match '${EXPECT_REGEX}'")
endif()
