# qa_farm --trace smoke driven by ctest (see tools/CMakeLists.txt): a short
# traced farm run must exit 0 and write a trace.json whose every event line
# parses as JSON and which carries the farm's admission notes, with the
# manifest still naming the trace and the flight-recorder dump path.
# --trace without --out-dir has nowhere to write and must exit 1.
# Inputs: QA_FARM (executable), WORK_DIR.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND ${QA_FARM} --trace --duration-s 30 --out-dir ${WORK_DIR}/run
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qa_farm --trace failed with ${rc}:\n${out}")
endif()

set(trace "${WORK_DIR}/run/trace.json")
if(NOT EXISTS "${trace}")
  message(FATAL_ERROR "qa_farm --trace wrote no ${trace}")
endif()
# One event per line between the array brackets. The bracket lines are
# filtered out before the lines become a CMake list (a lone "[" element
# would swallow the list separators after it); the newline count then
# proves no other line was skipped.
file(READ "${trace}" text)
file(STRINGS "${trace}" lines REGEX "^{")
set(events 0)
foreach(line IN LISTS lines)
  string(REGEX REPLACE ",$" "" event "${line}")
  string(JSON ph ERROR_VARIABLE err GET "${event}" ph)
  if(err)
    message(FATAL_ERROR "unparseable trace line: ${line}\n${err}")
  endif()
  math(EXPR events "${events} + 1")
endforeach()
string(REGEX MATCHALL "\n" newlines "${text}")
list(LENGTH newlines n_lines)
math(EXPR expected "${events} + 2")
if(events EQUAL 0 OR NOT n_lines EQUAL expected)
  message(FATAL_ERROR "trace.json: ${events} event lines parsed out of "
                      "${n_lines} lines (want events + 2 bracket lines)")
endif()
string(FIND "${text}" "\"name\":\"farm.admission.admit\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "trace.json has no farm.admission.admit instant")
endif()

file(READ "${WORK_DIR}/run/manifest.json" manifest)
foreach(key trace_path flightrec_path)
  string(JSON value ERROR_VARIABLE err GET "${manifest}" ${key})
  if(err)
    message(FATAL_ERROR "manifest.json lacks ${key}:\n${manifest}")
  endif()
endforeach()

execute_process(
  COMMAND ${QA_FARM} --trace --duration-s 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "qa_farm --trace without --out-dir exited ${rc}, "
                      "want 1:\n${err}")
endif()
message(STATUS "qa_farm --trace wrote ${events} parseable events")
