# Runs a command and prints its exit code and stderr on one line,
# "exited with <code>: <stderr>", so that one ctest PASS_REGULAR_EXPRESSION
# pins the exit code and the message together (the regex alone ignores the
# exit code, and WILL_FAIL alone accepts any failure, a crash included):
#
#   cmake -P cmake/cli_exit_code.cmake -- <command> [args...]

set(cmd "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "cli_exit_code.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
string(STRIP "${err}" err)
message("exited with ${rc}: ${err}")
