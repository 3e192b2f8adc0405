# Batch and ingest are one per-page step behind one dump driver, so the
# CLI modes must agree on the demo corpus:
#   - `somr_process --demo` at --threads=1 and --threads=4 writes
#     byte-identical --graphs-out and --cube-out files;
#   - `somr_ingest init --demo`, `append --demo` and `export` give the same
#     identity-graph page blocks and change-cube rows as `somr_process
#     --demo`, compared as sets because export lists pages by title.
#
#   cmake -DSOMR_PROCESS=path/to/somr_process -DSOMR_INGEST=path/to/somr_ingest \
#         -DWORK_DIR=/tmp/x -P tools/cli_modes_smoke.cmake

cmake_minimum_required(VERSION 3.16)  # list() keeps empty elements

if(NOT SOMR_PROCESS OR NOT SOMR_INGEST OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSOMR_PROCESS=... -DSOMR_INGEST=... "
                      "-DWORK_DIR=... -P cli_modes_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${ARGN}: exit ${code}\n${out}${err}")
  endif()
endfunction()

function(expect_same_bytes a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

# Reads `path` as a sorted list of pieces: the text is cut before every
# occurrence of `separator`, and pieces that are only the separator are
# dropped. List-special characters are escaped first so a piece is never
# split further.
function(read_sorted_pieces path separator out)
  file(READ "${path}" text)
  string(REPLACE "[" "<lb>" text "${text}")
  string(REPLACE "]" "<rb>" text "${text}")
  string(REPLACE ";" "<sc>" text "${text}")
  string(REPLACE "${separator}" ";${separator}" text "${text}")
  list(REMOVE_ITEM text "" "${separator}")
  list(SORT text)
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

foreach(threads 1 4)
  run("${SOMR_PROCESS}" --demo --threads=${threads} --summary=false
      "--graphs-out=${WORK_DIR}/graphs-${threads}.txt"
      "--cube-out=${WORK_DIR}/cube-${threads}.csv")
endforeach()
expect_same_bytes("${WORK_DIR}/graphs-1.txt" "${WORK_DIR}/graphs-4.txt")
expect_same_bytes("${WORK_DIR}/cube-1.csv" "${WORK_DIR}/cube-4.csv")

set(state "--state-dir=${WORK_DIR}/state")
run("${SOMR_INGEST}" ${state} init --demo)
run("${SOMR_INGEST}" ${state} append --demo)
run("${SOMR_INGEST}" ${state} export
    "--graphs-out=${WORK_DIR}/ingest-graphs.txt"
    "--cube-out=${WORK_DIR}/ingest-cube.csv")

read_sorted_pieces("${WORK_DIR}/graphs-1.txt" "## page: " batch_pages)
read_sorted_pieces("${WORK_DIR}/ingest-graphs.txt" "## page: " ingest_pages)
list(LENGTH batch_pages pages)
if(pages EQUAL 0)
  message(FATAL_ERROR "somr_process --demo wrote no page blocks")
endif()
if(NOT batch_pages STREQUAL ingest_pages)
  message(FATAL_ERROR "somr_ingest export and somr_process --demo give "
                      "different identity-graph page blocks")
endif()

read_sorted_pieces("${WORK_DIR}/cube-1.csv" "\n" batch_rows)
read_sorted_pieces("${WORK_DIR}/ingest-cube.csv" "\n" ingest_rows)
list(LENGTH batch_rows rows)
if(rows LESS 2)
  message(FATAL_ERROR "somr_process --demo wrote no change-cube rows")
endif()
if(NOT batch_rows STREQUAL ingest_rows)
  message(FATAL_ERROR "somr_ingest export and somr_process --demo give "
                      "different change-cube rows")
endif()
message(STATUS "cli_modes_smoke: ok (${pages} pages, ${rows} cube lines)")
