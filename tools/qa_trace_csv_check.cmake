# qa_trace smoke driven by ctest (see tools/CMakeLists.txt): an
# outcome-only run (no Chrome trace) with a CBR burst, a RED bottleneck and
# the equal-share allocation must exit 0 and write the time-series CSV.
# The duration is left to its CBR default (90 s). A malformed numeric flag
# must be a named usage error (exit 1), not a silent default or an abort.
# Inputs: QA_TRACE (executable), WORK_DIR.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND ${QA_TRACE} --out-dir ${WORK_DIR}/run --no-trace --cbr --red
          --allocation equal-share --layers 4 --csv ${WORK_DIR}/series.csv
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qa_trace failed with ${rc}:\n${out}")
endif()

if(NOT EXISTS "${WORK_DIR}/series.csv")
  message(FATAL_ERROR "qa_trace --csv wrote no ${WORK_DIR}/series.csv")
endif()
file(STRINGS "${WORK_DIR}/series.csv" rows)
list(LENGTH rows n)
list(GET rows 0 header)
if(NOT header MATCHES "^t_sec,rate,consumption,layers,total_buffer,rebuffering,buf_L0,"
   OR n LESS 800)
  message(FATAL_ERROR "unexpected CSV (${n} lines, header '${header}')")
endif()
message(STATUS "qa_trace --csv wrote ${n} lines:\n${out}")

execute_process(
  COMMAND ${QA_TRACE} --out-dir ${WORK_DIR}/bad --no-trace --duration-s 5
          --seed abc
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "--seed")
  message(FATAL_ERROR
          "qa_trace --seed abc: want exit 1 naming --seed, got ${rc}:\n"
          "${out}${err}")
endif()
if(EXISTS "${WORK_DIR}/bad/manifest.json")
  message(FATAL_ERROR "qa_trace --seed abc still ran and wrote a manifest")
endif()
