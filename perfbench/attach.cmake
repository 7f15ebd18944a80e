# Included right after project(nodebench) through
# CMAKE_PROJECT_nodebench_INCLUDE. The library targets and the build flags
# do not exist yet at that point, so the tracer's build file is included
# when the top-level directory has finished processing. Deferred arguments
# are expanded when the call runs, hence the variable.
set(PERFBENCH_LAYERS_CMAKE ${CMAKE_CURRENT_LIST_DIR}/layers.cmake)
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
  CALL include ${PERFBENCH_LAYERS_CMAKE})
