# Checks that every test a document cites exists: each backticked
# `Suite.Name`, `Suite.Prefix*` or `Suite.*` in DOC must match at least one
# test listed by one of the gtest BINARIES. Used by the
# experiments_cited_tests_exist test in CMakeLists.txt:
#
#   cmake -DDOC=<file.md> -DBINARIES=<bin>|<bin>|... -P cited_tests_exist.cmake
#
# Suite and test names start with an upper-case letter, so file names
# (`reports.hpp`) and metric names (`trace.events`) are not mistaken for
# tests. Parameterized tests match by suite and base name
# (`Inst/Suite.Name/3` lists as `Suite.Name`).
file(READ "${DOC}" doc)
string(REGEX MATCHALL "`[A-Z][A-Za-z0-9_]*\\.(\\*|[A-Z][A-Za-z0-9_]*\\*?)`"
       cited "${doc}")
list(REMOVE_DUPLICATES cited)
if(NOT cited)
  message(FATAL_ERROR "${DOC} cites no Suite.Name tests")
endif()

string(REPLACE "|" ";" binaries "${BINARIES}")
set(known "")
foreach(binary IN LISTS binaries)
  execute_process(COMMAND "${binary}" --gtest_list_tests
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE listing
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} --gtest_list_tests: exit ${rc}\n${err}")
  endif()
  # Parameter comments may hold list-breaking characters; drop them
  # before splitting into lines.
  string(REGEX REPLACE "  #[^\n]*" "" listing "${listing}")
  string(REPLACE "\n" ";" lines "${listing}")
  set(suite "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^([^ ].*)\\.$")
      # Suite line: drop a typed-test index and a parameterized
      # instantiation prefix.
      string(REGEX REPLACE "/[0-9]+$" "" suite "${CMAKE_MATCH_1}")
      string(REGEX REPLACE "^.*/" "" suite "${suite}")
    elseif(line MATCHES "^  ([^ ]+)")
      string(REGEX REPLACE "/.*$" "" name "${CMAKE_MATCH_1}")
      list(APPEND known "${suite}.${name}")
    endif()
  endforeach()
endforeach()

set(missing "")
foreach(quoted IN LISTS cited)
  string(REGEX REPLACE "^`(.*)`$" "\\1" test "${quoted}")
  if(test MATCHES "^(.*)\\*$")
    # Prefix pattern: some listed test must start with it.
    string(LENGTH "${CMAKE_MATCH_1}" prefixLength)
    set(found FALSE)
    foreach(name IN LISTS known)
      string(SUBSTRING "${name}" 0 ${prefixLength} head)
      if(head STREQUAL CMAKE_MATCH_1)
        set(found TRUE)
        break()
      endif()
    endforeach()
  else()
    list(FIND known "${test}" at)
    if(at EQUAL -1)
      set(found FALSE)
    else()
      set(found TRUE)
    endif()
  endif()
  if(NOT found)
    list(APPEND missing "${test}")
  endif()
endforeach()

if(missing)
  list(JOIN missing "\n  " report)
  message(FATAL_ERROR "${DOC} cites tests that do not exist:\n  ${report}")
endif()
list(LENGTH cited count)
message(STATUS "${DOC}: all ${count} cited tests exist")
