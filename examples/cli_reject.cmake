# Runs one command that must reject its input: it has to exit with status 2
# and print a line matching PATTERN on stderr.
#
#   cmake -DPATTERN=<regex> -P cli_reject.cmake -- <program> [args...]
set(cmd "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "cli_reject: no command after --")
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "cli_reject: exit status ${status}, expected 2\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR "cli_reject: stderr does not match '${PATTERN}'\n"
                      "stderr:\n${err}")
endif()
