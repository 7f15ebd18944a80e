# Runs one nodebench command that must be refused as a usage error and
# checks how it is refused: exit code 1, MESSAGE on stderr, and no file
# matching LEFTOVER_GLOB afterwards (the refusal has to come before
# anything is created). Used by the cli_refuse_* tests in CMakeLists.txt:
#
#   cmake -DNODEBENCH=<binary> -DARGS=<args> -DMESSAGE=<text>
#         [-DLEFTOVER_GLOB=<glob>] -P expect_refusal.cmake
#
# ARGS is split like a shell command line, so quotes group words.
if(LEFTOVER_GLOB)
  file(GLOB stale "${LEFTOVER_GLOB}")
  if(stale)
    file(REMOVE ${stale})
  endif()
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${NODEBENCH}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "nodebench ${ARGS}: exit ${rc}, wanted 1\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "nodebench ${ARGS}: stderr lacks \"${MESSAGE}\":\n${err}")
endif()
if(LEFTOVER_GLOB)
  file(GLOB left "${LEFTOVER_GLOB}")
  if(left)
    message(FATAL_ERROR "nodebench ${ARGS} left files behind: ${left}")
  endif()
endif()
