# Run a command and require a given exit code (and, optionally, a
# stdout or stderr match), for the `drsim` command-line contract tests:
#
#   cmake -DEXPECT=2 [-DMATCH=regex] [-DERR_MATCH=regex]
#         -P expect_exit.cmake -- CMD ARGS...
set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
    if(seen_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(seen_dashes TRUE)
    endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "exit ${rc}, want ${EXPECT}: ${cmd}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
    message(FATAL_ERROR "stdout does not match '${MATCH}': ${cmd}\n"
                        "${out}")
endif()
if(DEFINED ERR_MATCH AND NOT err MATCHES "${ERR_MATCH}")
    message(FATAL_ERROR "stderr does not match '${ERR_MATCH}': ${cmd}\n"
                        "${err}")
endif()
