# Runs one CLI invocation and checks its exit code and stderr:
#
#   cmake -DEXPECT_RC=<n> [-DEXPECT_ERR=<regex>]
#         -P check_cli.cmake -- <program> [args...]
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "check_cli.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(report "command: ${cmd}\nexit: ${rc}\nstdout:\n${out}\nstderr:\n${err}")

if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "expected exit ${EXPECT_RC}\n${report}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERR}'\n${report}")
endif()
