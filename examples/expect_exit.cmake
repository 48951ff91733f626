# Runs one command that must exit with status STATUS (default 2, a rejected
# input) and, when PATTERN is given, print a line matching it on stderr.
#
#   cmake [-DSTATUS=<n>] [-DPATTERN=<regex>] -P expect_exit.cmake -- <program> [args...]
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
  message(FATAL_ERROR "expect_exit: no command after --")
endif()
if(NOT DEFINED STATUS)
  set(STATUS 2)
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL STATUS)
  message(FATAL_ERROR "expect_exit: exit status ${status}, expected ${STATUS}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED PATTERN AND NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR "expect_exit: stderr does not match '${PATTERN}'\n"
                      "stderr:\n${err}")
endif()
