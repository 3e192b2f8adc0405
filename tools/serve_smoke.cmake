# Serving smoke test, run via `cmake -P` from ctest (see
# tools/CMakeLists.txt). Exercises the HTTP daemon end to end against
# the batch pipeline on the demo corpus:
#   1. batch reference graphs via `somr_process --demo --graphs-out`,
#   2. daemon with a deliberately tiny context cache (capacity 2 for 6
#      pages -> constant LRU spill + fault), fed the first half of every
#      page history over chunked POSTs,
#   3. SIGTERM graceful shutdown (checkpoints every dirty context),
#   4. a fresh daemon resumed from the checkpoints alone, fed the full
#      histories -- the already-seen halves must surface as skipped,
#   5. `demo-graphs` fetched over HTTP and byte-compared against the
#      batch reference,
#   6. /healthz + /metrics scraped, then POST /admin/drain and a clean
#      daemon exit,
#   7. the observability surface scraped live: /debug/vars,
#      /debug/requests and /metrics/window must return parseable JSON,
#      and the provenance ring must stamp request trace ids.
# Requires: -DSOMR_SERVE=<path> -DSOMR_PROCESS=<path> -DWORK_DIR=<dir>.

cmake_minimum_required(VERSION 3.25)

if(NOT DEFINED SOMR_SERVE OR NOT DEFINED SOMR_PROCESS OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "serve_smoke: pass -DSOMR_SERVE, -DSOMR_PROCESS and -DWORK_DIR")
endif()

# The daemon runs in the background; `sh` launches it and bash's
# /dev/tcp scrapes endpoints the client tool has no subcommand for.
find_program(SH_BIN sh REQUIRED)
find_program(BASH_BIN bash REQUIRED)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(state_dir "${WORK_DIR}/state")
set(pid_file "${WORK_DIR}/serve.pid")
set(port_file "${WORK_DIR}/serve.port")

# Kills a still-running daemon before failing so a broken smoke run
# never leaks a listener into the test machine.
macro(die msg)
  if(EXISTS "${pid_file}")
    file(READ "${pid_file}" _pid)
    string(STRIP "${_pid}" _pid)
    execute_process(COMMAND "${SH_BIN}" -c "kill -9 ${_pid} 2>/dev/null")
  endif()
  message(FATAL_ERROR "serve_smoke: ${msg}")
endmacro()

# Launches the daemon detached, then blocks until it has published its
# ephemeral port. `log` names a file under WORK_DIR for its output.
macro(start_daemon log)
  file(REMOVE "${port_file}")
  execute_process(
    COMMAND "${SH_BIN}" -c
      "'${SOMR_SERVE}' run --state-dir='${state_dir}' --port=0 \
       --port-file='${port_file}' --shards=2 --cache-capacity=2 \
       > '${WORK_DIR}/${log}' 2>&1 & echo $! > '${pid_file}'"
    RESULT_VARIABLE launch_result)
  if(NOT launch_result EQUAL 0)
    die("cannot launch daemon (${launch_result})")
  endif()
  set(port "")
  foreach(attempt RANGE 100)
    if(EXISTS "${port_file}")
      file(READ "${port_file}" port)
      string(STRIP "${port}" port)
      if(NOT port STREQUAL "")
        break()
      endif()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  endforeach()
  if(port STREQUAL "")
    die("daemon never published a port (see ${WORK_DIR}/${log})")
  endif()
endmacro()

# Waits for the daemon to exit and asserts it logged a clean shutdown.
macro(await_exit log)
  file(READ "${pid_file}" pid)
  string(STRIP "${pid}" pid)
  set(gone FALSE)
  foreach(attempt RANGE 100)
    execute_process(COMMAND "${SH_BIN}" -c "kill -0 ${pid} 2>/dev/null"
      RESULT_VARIABLE alive)
    if(NOT alive EQUAL 0)
      set(gone TRUE)
      break()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  endforeach()
  if(NOT gone)
    die("daemon ${pid} did not exit")
  endif()
  file(REMOVE "${pid_file}")
  file(READ "${WORK_DIR}/${log}" daemon_log)
  if(NOT daemon_log MATCHES "drained and checkpointed")
    message(FATAL_ERROR
      "serve_smoke: daemon exited without a clean drain:\n${daemon_log}")
  endif()
endmacro()

# Issues a bare HTTP/1.1 request over bash /dev/tcp; the response
# (headers + body) lands in `out_var`.
macro(scrape method target out_var)
  execute_process(
    COMMAND "${BASH_BIN}" -c
      "exec 3<>/dev/tcp/127.0.0.1/${port}; \
       printf '%b' '${method} ${target} HTTP/1.1\\r\\nHost: smoke\\r\\nContent-Length: 0\\r\\nConnection: close\\r\\n\\r\\n' >&3; \
       cat <&3"
    RESULT_VARIABLE scrape_result
    OUTPUT_VARIABLE ${out_var})
  if(NOT scrape_result EQUAL 0)
    die("${method} ${target} failed (${scrape_result})")
  endif()
endmacro()

# Splits a scraped response into its body (after the header block) and
# asserts it parses as JSON (string(JSON) fatals on malformed input
# unless given an error variable).  execute_process strips the CR from
# CRLF line endings in OUTPUT_VARIABLE, so the header/body boundary in a
# scraped response is a bare "\n\n"; the CRLF form is kept as a fallback
# in case that normalization ever changes.
macro(json_body response_var out_var)
  string(FIND "${${response_var}}" "\n\n" _body_at)
  set(_body_skip 2)
  if(_body_at EQUAL -1)
    string(FIND "${${response_var}}" "\r\n\r\n" _body_at)
    set(_body_skip 4)
  endif()
  if(_body_at EQUAL -1)
    die("no body in response:\n${${response_var}}")
  endif()
  math(EXPR _body_at "${_body_at} + ${_body_skip}")
  string(SUBSTRING "${${response_var}}" ${_body_at} -1 ${out_var})
  string(JSON _json_kind ERROR_VARIABLE _json_error TYPE "${${out_var}}")
  if(NOT _json_error STREQUAL "NOTFOUND")
    die("${out_var} is not valid JSON (${_json_error}):\n${${out_var}}")
  endif()
endmacro()

# --- Batch reference ----------------------------------------------------
execute_process(
  COMMAND "${SOMR_PROCESS}" --demo --summary=false
    "--graphs-out=${WORK_DIR}/batch.graphs"
  RESULT_VARIABLE batch_result
  OUTPUT_VARIABLE batch_stdout ERROR_VARIABLE batch_stderr)
if(NOT batch_result EQUAL 0)
  message(FATAL_ERROR
    "somr_process --demo failed (${batch_result}):\n${batch_stderr}")
endif()

# --- Phase 1: half histories over chunked POSTs, then SIGTERM -----------
start_daemon(serve-first.log)
execute_process(
  COMMAND "${SOMR_SERVE}" demo-feed "--port=${port}" --phase=first --chunked
  RESULT_VARIABLE feed_result
  OUTPUT_VARIABLE feed_stdout ERROR_VARIABLE feed_stderr)
if(NOT feed_result EQUAL 0)
  die("demo-feed first failed (${feed_result}):\n${feed_stdout}${feed_stderr}")
endif()
if(NOT feed_stdout MATCHES "0 pages fully skipped")
  die("first feed unexpectedly skipped pages: ${feed_stdout}")
endif()

file(READ "${pid_file}" pid)
string(STRIP "${pid}" pid)
execute_process(COMMAND "${SH_BIN}" -c "kill -TERM ${pid}")
await_exit(serve-first.log)

# --- Phase 2: restart from checkpoints, restate full histories ----------
start_daemon(serve-rest.log)
execute_process(
  COMMAND "${SOMR_SERVE}" demo-feed "--port=${port}" --phase=rest
  RESULT_VARIABLE rest_result
  OUTPUT_VARIABLE rest_stdout ERROR_VARIABLE rest_stderr)
if(NOT rest_result EQUAL 0)
  die("demo-feed rest failed (${rest_result}):\n${rest_stdout}${rest_stderr}")
endif()
# Everything ingested before the restart must resurface as skipped: the
# daemon resumed from checkpoints, not from scratch.
if(NOT rest_stdout MATCHES " ([1-9][0-9]*) skipped")
  die("restated feed reported no skipped revisions: ${rest_stdout}")
endif()

# --- The gate: serve graphs == batch graphs, byte for byte --------------
execute_process(
  COMMAND "${SOMR_SERVE}" demo-graphs "--port=${port}"
    "--out=${WORK_DIR}/serve.graphs"
  RESULT_VARIABLE graphs_result
  OUTPUT_VARIABLE graphs_stdout ERROR_VARIABLE graphs_stderr)
if(NOT graphs_result EQUAL 0)
  die("demo-graphs failed (${graphs_result}):\n${graphs_stderr}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${WORK_DIR}/batch.graphs" "${WORK_DIR}/serve.graphs"
  RESULT_VARIABLE compare_result)
if(NOT compare_result EQUAL 0)
  die("serve graphs differ from batch graphs \
(${WORK_DIR}/batch.graphs vs ${WORK_DIR}/serve.graphs)")
endif()

# --- Health, metrics, drain ---------------------------------------------
scrape(GET /healthz health)
if(NOT health MATCHES "200 OK" OR NOT health MATCHES "\"status\": \"ok\"")
  die("unexpected /healthz response:\n${health}")
endif()
json_body(health health_json)
string(JSON health_version GET "${health_json}" build version)
if(health_version STREQUAL "")
  die("/healthz build info has no version:\n${health_json}")
endif()
scrape(GET /metrics metrics)
foreach(needle
    somr_serve_requests_total
    somr_serve_contexts_evicted
    somr_serve_contexts_dirty
    somr_ingest_pages_skipped_total
    somr_build_info
    somr_uptime_seconds)
  if(NOT metrics MATCHES "${needle}")
    die("/metrics is missing ${needle}:\n${metrics}")
  endif()
endforeach()
# The tiny cache must actually have spilled under pressure, or the
# eviction/fault path was never on trial.
if(NOT metrics MATCHES "somr_serve_contexts_evicted ([1-9][0-9]*)")
  die("expected nonzero context evictions:\n${metrics}")
endif()

# --- Debug introspection suite ------------------------------------------
# /debug/vars: build + config + per-shard residency as parseable JSON.
scrape(GET /debug/vars vars_response)
json_body(vars_response vars_json)
string(JSON vars_fingerprint GET "${vars_json}" config_fingerprint)
if(NOT vars_fingerprint MATCHES "^[0-9a-f]+$")
  die("/debug/vars config_fingerprint is not hex: ${vars_fingerprint}")
endif()
string(JSON vars_shard_count LENGTH "${vars_json}" shards)
if(NOT vars_shard_count EQUAL 2)
  die("/debug/vars reports ${vars_shard_count} shards, expected 2")
endif()
string(JSON vars_resident GET "${vars_json}" shards 0 resident)
string(JSON vars_queue GET "${vars_json}" shards 1 queue_depth)

# /debug/requests: the request table must already hold finished rows
# (the scrapes above), each stamped with a hex trace id.
scrape(GET /debug/requests requests_response)
json_body(requests_response requests_json)
string(JSON requests_kind TYPE "${requests_json}" recent)
if(NOT requests_kind STREQUAL "ARRAY")
  die("/debug/requests recent is ${requests_kind}, expected ARRAY")
endif()
if(NOT requests_json MATCHES "\"trace_id\": \"[0-9a-f]+\"")
  die("/debug/requests rows carry no trace ids:\n${requests_json}")
endif()

# /metrics/window: per-endpoint rolling-window percentiles; the feed
# drove /context/.../revision, so the revision endpoint must have
# observations and a p95 in its 5m horizon.
scrape(GET /metrics/window window_response)
json_body(window_response window_json)
string(JSON revision_count GET "${window_json}"
       windows somr_serve_request_seconds_revision 5m count)
string(JSON revision_p95 GET "${window_json}"
       windows somr_serve_request_seconds_revision 5m p95)
if(revision_count EQUAL 0)
  die("/metrics/window shows no revision-endpoint samples:\n${window_json}")
endif()

# /debug/trace: a zero-length capture still returns loadable Chrome
# trace JSON (a traceEvents array).
scrape(GET /debug/trace?ms=0 trace_response)
json_body(trace_response trace_json)
string(JSON trace_kind TYPE "${trace_json}" traceEvents)
if(NOT trace_kind STREQUAL "ARRAY")
  die("/debug/trace traceEvents is ${trace_kind}, expected ARRAY")
endif()

# Provenance records written during the served ingest carry the ingest
# request's trace id. Pick a page title out of the served graphs dump.
file(READ "${WORK_DIR}/serve.graphs" serve_graphs)
if(NOT serve_graphs MATCHES "## page: ([^\n]+)")
  die("no page titles in ${WORK_DIR}/serve.graphs")
endif()
string(REPLACE " " "%20" title_enc "${CMAKE_MATCH_1}")
string(REPLACE "'" "%27" title_enc "${title_enc}")
scrape(GET "/context/${title_enc}/provenance?limit=10" prov_response)
if(NOT prov_response MATCHES "200 OK")
  die("provenance scrape for ${title_enc} failed:\n${prov_response}")
endif()
if(NOT prov_response MATCHES "\"trace_id\": \"[0-9a-f]+\"")
  die("provenance records carry no trace ids:\n${prov_response}")
endif()

scrape(POST /admin/drain drain)
if(NOT drain MATCHES "draining")
  die("unexpected /admin/drain response:\n${drain}")
endif()
await_exit(serve-rest.log)

message(STATUS "serve_smoke: OK (graphs byte-identical across "
  "chunked ingest, eviction pressure, SIGTERM restart and drain)")
