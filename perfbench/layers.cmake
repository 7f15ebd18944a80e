# The layer tracer of the perfbench benchmark. It is not part of the
# repository's own build: run.py configures the repository's top-level
# CMakeLists.txt with -DCMAKE_PROJECT_nodebench_INCLUDE=perfbench/attach.cmake,
# which includes this file once the nodebench library targets exist, so
# the tracer links exactly the libraries the `nodebench` binary is built
# from, with the same flags.
add_executable(perfbench_layers ${CMAKE_CURRENT_LIST_DIR}/layers.cpp)
target_link_libraries(perfbench_layers
  PRIVATE nodebench_report nodebench_serve nodebench_osu nodebench_machines
          nodebench_campaign nodebench_stats nodebench_trace
          nodebench_warnings)
