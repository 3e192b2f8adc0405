# `somr_ingest init` on input it cannot ingest must exit 1 and leave no
# store behind, so a later `append` or `status` finds nothing to trust.
# An init that saved pages and then failed (here: its metrics file cannot
# be written) also exits 1, but keeps those pages for `append` to resume.
# A store is `records.idx` plus its shard files; a directory that holds a
# `manifest.tsv` was written by an older release and is refused with a
# re-ingest hint.
#
#   cmake -DSOMR_INGEST=path/to/somr_ingest -DWORK_DIR=/tmp/x \
#         -P tools/ingest_init_smoke.cmake

if(NOT SOMR_INGEST OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSOMR_INGEST=... -DWORK_DIR=... -P "
                      "ingest_init_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/notdump.xml" "<html><body>no dump</body></html>\n")

# Runs `somr_ingest --state-dir=<state> <args>`, expects exit 1 and
# `want_error` on stderr.
function(expect_failed_init state want_error)
  execute_process(
    COMMAND "${SOMR_INGEST}" "--state-dir=${state}" init ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "init ${ARGN}: exit ${code}, want 1\n${out}${err}")
  endif()
  string(FIND "${err}" "${want_error}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "init ${ARGN}: stderr lacks \"${want_error}\"\n"
                        "${err}")
  endif()
endfunction()

expect_failed_init("${WORK_DIR}/state" "no <mediawiki> root element"
                   "${WORK_DIR}/notdump.xml")
if(EXISTS "${WORK_DIR}/state")
  message(FATAL_ERROR "init of a non-dump left ${WORK_DIR}/state behind")
endif()
expect_failed_init("${WORK_DIR}/state" "cannot open"
                   "${WORK_DIR}/missing.xml")
if(EXISTS "${WORK_DIR}/state")
  message(FATAL_ERROR "init of a missing file left ${WORK_DIR}/state behind")
endif()

expect_failed_init("${WORK_DIR}/kept" "cannot open" --demo
                   "--metrics-out=${WORK_DIR}/no-such-dir/metrics.prom")
execute_process(
  COMMAND "${SOMR_INGEST}" "--state-dir=${WORK_DIR}/kept" status
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "status after a failed --demo init: exit ${code}\n"
                      "${out}${err}")
endif()
string(REGEX MATCH "([0-9]+) pages in" pages_line "${out}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "a failed --demo init kept no pages\n${out}")
endif()
execute_process(
  COMMAND "${SOMR_INGEST}" "--state-dir=${WORK_DIR}/demo" init --demo
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "init --demo: exit ${code}\n${out}${err}")
endif()
file(GLOB shard_files "${WORK_DIR}/demo/records-*.rec")
if(NOT EXISTS "${WORK_DIR}/demo/records.idx" OR NOT shard_files)
  message(FATAL_ERROR "init --demo left no records.idx or shard files")
endif()
if(EXISTS "${WORK_DIR}/demo/manifest.tsv")
  message(FATAL_ERROR "init --demo wrote a manifest.tsv")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}/old")
file(WRITE "${WORK_DIR}/old/manifest.tsv"
     "# somr-context-store v4 config=0123456789abcdef base=0\n")
foreach(command append status)
  execute_process(
    COMMAND "${SOMR_INGEST}" "--state-dir=${WORK_DIR}/old" ${command}
            --demo
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${command} on a v4 store: exit ${code}, want 1\n"
                        "${out}${err}")
  endif()
  string(FIND "${err}" "re-ingest" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${command} on a v4 store: stderr lacks "
                        "\"re-ingest\"\n${err}")
  endif()
endforeach()
message(STATUS "ingest_init_smoke: ok")
