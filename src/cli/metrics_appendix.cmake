# Runs `nodebench ARGS`, which must exit 0, and checks the metrics
# appendix that ends its stdout (from the "Trace metrics appendix"
# heading on): it must equal the file GOLDEN, or the appendix that
# `nodebench SAME_AS` prints.
#
#   cmake -DNODEBENCH=<binary> -DARGS=<args> [-DGOLDEN=<file>]
#         [-DSAME_AS=<args>] -P metrics_appendix.cmake
function(appendix_of command_line result)
  separate_arguments(args UNIX_COMMAND "${command_line}")
  execute_process(COMMAND "${NODEBENCH}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nodebench ${command_line}: exit ${rc}\n${err}")
  endif()
  string(FIND "${out}" "\nTrace metrics appendix\n" at REVERSE)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "nodebench ${command_line}: no metrics appendix in stdout:\n${out}")
  endif()
  string(SUBSTRING "${out}" ${at} -1 appendix)
  set(${result} "${appendix}" PARENT_SCOPE)
endfunction()

appendix_of("${ARGS}" actual)
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" expected)
  set(source "${GOLDEN}")
endif()
if(DEFINED SAME_AS)
  appendix_of("${SAME_AS}" expected)
  set(source "nodebench ${SAME_AS}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "nodebench ${ARGS}: metrics appendix differs from ${source}\n"
    "--- got:\n${actual}\n--- wanted:\n${expected}")
endif()
