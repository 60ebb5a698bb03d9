# End-to-end smoke test of the ethshard CLI, run by ctest:
#   generate -> stats -> simulate (+ csv) -> partition -> dot -> import,
#   then the --help and unknown-method exits.
# Usage: cmake -DCLI=<path-to-ethshard> -DWORKDIR=<scratch> [-DOBS=ON|OFF]
#        -P cli_smoke.cmake
# OBS says whether the observability layer is compiled in (default ON);
# with it off, --metrics-out writes no timers or gauges and their checks
# are skipped.

if(NOT DEFINED CLI OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "cli_smoke.cmake needs -DCLI=... and -DWORKDIR=...")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(TRACE "${WORKDIR}/trace.csv")
set(WINDOWS "${WORKDIR}/windows.csv")
set(IMPORTED "${WORKDIR}/imported.csv")

function(run_cli expect_substring)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ethshard ${ARGN} failed (rc=${rc}):\n${out}\n${err}")
  endif()
  if(NOT expect_substring STREQUAL "" AND NOT out MATCHES "${expect_substring}")
    message(FATAL_ERROR
      "ethshard ${ARGN}: expected output matching '${expect_substring}', got:\n${out}")
  endif()
endfunction()

if(NOT DEFINED OBS)
  set(OBS ON)
endif()

# Fails unless the file at `path` has SHA-256 `want`. The pinned digests
# below are the ingest path's byte contract: the generator's trace and the
# window metrics replayed from it. A change that alters either (the RNG
# draw order, trace formatting, replay accounting) must update the pin on
# purpose and say why.
function(expect_sha256 path want)
  file(SHA256 "${path}" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${path}: sha256 ${got}, pinned ${want}")
  endif()
endfunction()

# Fails unless the metrics CSV at `path` lists every metric of `kind`
# (timer, gauge, ...) named in ARGN.
function(expect_metrics path kind)
  if(NOT OBS)
    return()
  endif()
  file(READ "${path}" text)
  foreach(name IN LISTS ARGN)
    if(NOT text MATCHES "(^|\n)${kind},${name},")
      message(FATAL_ERROR "--metrics-out ${path} lists no ${kind} ${name}")
    endif()
  endforeach()
endfunction()

run_cli("wrote" generate --scale 0.0003 --seed 5 --out ${TRACE})
expect_sha256(${TRACE}
  68b565bd10d2d8aaa7dec2b0d6ad59edc11ad577556e1b684e85cfb24fce8461)
run_cli("transactions" stats --trace ${TRACE})
set(TELEMETRY "${WORKDIR}/windows.jsonl")
set(METRICS_CSV "${WORKDIR}/metrics.csv")
run_cli("moves" simulate --trace ${TRACE} --method Hashing --shards 2
        --csv ${WINDOWS} --telemetry-out ${TELEMETRY}
        --metrics-out ${METRICS_CSV})
expect_sha256(${WINDOWS}
  b67f19c510023158c2f15811544d3c021661c7e05d8cec093d80254546bb02e6)
expect_metrics(${METRICS_CSV} timer ingest/read_trace_ms sim/run_ms)
# Where graph memory goes: the store's pair count and allocated size.
expect_metrics(${METRICS_CSV} gauge sim/graph_pairs sim/graph_store_mb)

# Replay has no thread knob: --replay-threads is an unknown flag, which
# the CLI names in its unused-flag warning, and the windows keep the pin.
set(WINDOWS_UNUSED "${WORKDIR}/windows_unused_flag.csv")
execute_process(
  COMMAND ${CLI} simulate --trace ${TRACE} --method Hashing --shards 2
          --csv ${WINDOWS_UNUSED} --replay-threads 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate --replay-threads 2 failed (rc=${rc}):\n${err}")
endif()
if(NOT err MATCHES "warning: unused flag --replay-threads")
  message(FATAL_ERROR
    "simulate --replay-threads 2: no unused-flag warning, stderr:\n${err}")
endif()
expect_sha256(${WINDOWS_UNUSED}
  b67f19c510023158c2f15811544d3c021661c7e05d8cec093d80254546bb02e6)

# The in-process generator is timed as its own ingest layer.
set(GEN_METRICS_CSV "${WORKDIR}/gen_metrics.csv")
run_cli("moves" simulate --scale 0.0003 --seed 5 --method Hashing --shards 2
        --metrics-out ${GEN_METRICS_CSV})
expect_metrics(${GEN_METRICS_CSV} timer ingest/generate_ms sim/run_ms)

# Streaming telemetry: one JSONL record per window, schema v1.
if(NOT EXISTS ${TELEMETRY})
  message(FATAL_ERROR "simulate --telemetry-out did not produce ${TELEMETRY}")
endif()
file(STRINGS ${TELEMETRY} telemetry_lines)
list(LENGTH telemetry_lines telemetry_count)
if(telemetry_count LESS 1)
  message(FATAL_ERROR "telemetry file ${TELEMETRY} is empty")
endif()
foreach(line IN LISTS telemetry_lines)
  if(NOT line MATCHES "^\\{\"v\": 1, \"seq\": [0-9]+, \"window_start\": ")
    message(FATAL_ERROR "bad telemetry record: ${line}")
  endif()
endforeach()

# --metrics-out with a .csv extension selects the CSV exporter.
if(NOT EXISTS ${METRICS_CSV})
  message(FATAL_ERROR "--metrics-out did not produce ${METRICS_CSV}")
endif()
file(STRINGS ${METRICS_CSV} metrics_lines LIMIT_COUNT 1)
if(NOT metrics_lines STREQUAL "kind,name,count,value,min,max,p50,p90,p99")
  message(FATAL_ERROR
    "--metrics-out *.csv wrote a non-CSV header: ${metrics_lines}")
endif()
run_cli("commVolume" partition --trace ${TRACE} --shards 4 --method MLKP)
run_cli("digraph" dot --trace ${TRACE} --from 2016-06-01 --to 2016-08-01
        --max-nodes 10)

if(NOT EXISTS ${WINDOWS})
  message(FATAL_ERROR "simulate --csv did not produce ${WINDOWS}")
endif()

# Hand-craft a tiny BigQuery-style traces export and import it.
set(BQ "${WORKDIR}/bq_traces.csv")
file(WRITE ${BQ}
"block_number,block_timestamp,transaction_hash,from_address,to_address,value,trace_type,input
100,1500000000,0xaa,0x0000000000000000000000000000000000000001,0x0000000000000000000000000000000000000002,5,call,0xdead
100,1500000000,0xbb,0x0000000000000000000000000000000000000003,0x0000000000000000000000000000000000000004,9,call,0x
101,1500000015,0xcc,0x0000000000000000000000000000000000000001,0x0000000000000000000000000000000000000005,0,create,0x6080
")
run_cli("imported 3 calls" import --traces ${BQ} --out ${IMPORTED})
run_cli("transactions" stats --trace ${IMPORTED})

# METIS interop: export the graph, fabricate a .part file with our own
# partitioner via the partition command being deterministic is overkill —
# instead produce an all-zeros part file and evaluate it.
set(METIS_GRAPH "${WORKDIR}/graph.metis")
run_cli("vertices" metis-export --trace ${TRACE} --out ${METIS_GRAPH})
# Build a trivial 1-shard-on-0 partition file matching the vertex count.
file(STRINGS ${METIS_GRAPH} metis_lines)
list(GET metis_lines 1 header)   # line 0 is the comment
string(REGEX MATCH "^[0-9]+" metis_n "${header}")
set(part_content "")
math(EXPR last "${metis_n} - 1")
foreach(i RANGE ${last})
  string(APPEND part_content "0\n")
endforeach()
set(METIS_PART "${WORKDIR}/graph.part")
file(WRITE ${METIS_PART} "${part_content}")
run_cli("communication volume: 0" metis-eval --trace ${TRACE}
        --part ${METIS_PART} --shards 2)

# `<command> --help` prints the usage with usage's exit code 2 and runs
# nothing: it writes no --csv file.
set(HELP_CSV "${WORKDIR}/help_windows.csv")
file(REMOVE ${HELP_CSV})
execute_process(
  COMMAND ${CLI} simulate --help --csv ${HELP_CSV}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "simulate --help: rc=${rc}, want 2:\n${err}")
endif()
if(NOT err MATCHES "usage: ethshard")
  message(FATAL_ERROR "simulate --help printed no usage, stderr:\n${err}")
endif()
if(EXISTS ${HELP_CSV})
  message(FATAL_ERROR "simulate --help ran a simulation: wrote ${HELP_CSV}")
endif()

# A bad --shards value fails by name before any history loads, so no
# "generating synthetic history" line is printed. simulate, partition and
# metis-eval take one shard count, compare a list; a count must fit a
# ShardId below the unassigned sentinel 2^32-1.
function(expect_bad_shards)
  execute_process(
    COMMAND ${CLI} ${ARGN} --scale 0.0003
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "ethshard ${ARGN}: exit 0, want an error:\n${out}")
  endif()
  if(NOT err MATCHES "--shards")
    message(FATAL_ERROR "ethshard ${ARGN}: error names no --shards:\n${err}")
  endif()
  if(err MATCHES "generating synthetic history")
    message(FATAL_ERROR
      "ethshard ${ARGN}: loaded a history before rejecting --shards:\n${err}")
  endif()
endfunction()
expect_bad_shards(simulate --shards 4294967298)
expect_bad_shards(simulate --shards 0)
expect_bad_shards(partition --shards 4294967297)
expect_bad_shards(metis-eval --part ${METIS_PART} --shards 4294967295)
expect_bad_shards(compare --shards 2,x)
expect_bad_shards(compare --shards 2,,4)

# Unknown method must fail cleanly.
execute_process(
  COMMAND ${CLI} simulate --trace ${TRACE} --method Bogus
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "simulate with a bogus method should fail")
endif()

message(STATUS "cli smoke test passed")
