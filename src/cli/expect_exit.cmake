# Runs one nodebench command and checks how it ends: exit code EXIT_CODE
# (default 1, a refusal), MESSAGE on stderr, stdout matching STDOUT_REGEX,
# and no file matching LEFTOVER_GLOB afterwards (a refusal has to come
# before anything is created). Used by the nodebench_refusal tests and
# the other cli_* tests in CMakeLists.txt that check output:
#
#   cmake -DNODEBENCH=<binary> -DARGS=<args> [-DEXIT_CODE=<rc>]
#         [-DMESSAGE=<text>] [-DSTDOUT_REGEX=<regex>]
#         [-DLEFTOVER_GLOB=<glob>] [-DEMPTY_LAST_ARG=ON] -P expect_exit.cmake
#
# ARGS is split like a shell command line, so quotes group words; as that
# split drops empty words, EMPTY_LAST_ARG appends one empty argument.
if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 1)
endif()
if(LEFTOVER_GLOB)
  file(GLOB stale "${LEFTOVER_GLOB}")
  if(stale)
    file(REMOVE ${stale})
  endif()
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
# A list expansion drops empty elements, so the empty one is spelled out.
if(EMPTY_LAST_ARG)
  execute_process(COMMAND "${NODEBENCH}" ${args} ""
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
else()
  execute_process(COMMAND "${NODEBENCH}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
endif()
if(NOT rc EQUAL EXIT_CODE)
  message(FATAL_ERROR
    "nodebench ${ARGS}: exit ${rc}, wanted ${EXIT_CODE}\n${err}")
endif()
if(DEFINED MESSAGE)
  string(FIND "${err}" "${MESSAGE}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "nodebench ${ARGS}: stderr lacks \"${MESSAGE}\":\n${err}")
  endif()
endif()
if(DEFINED STDOUT_REGEX AND NOT out MATCHES "${STDOUT_REGEX}")
  message(FATAL_ERROR
    "nodebench ${ARGS}: stdout does not match \"${STDOUT_REGEX}\":\n${out}")
endif()
if(LEFTOVER_GLOB)
  file(GLOB left "${LEFTOVER_GLOB}")
  if(left)
    message(FATAL_ERROR "nodebench ${ARGS} left files behind: ${left}")
  endif()
endif()
