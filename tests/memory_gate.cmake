# Peak-memory gate for a B-spline build, run as a ctest script:
#
#   cmake -DTINGE_CLI=<path> -DINPUT_WRITER=<path> -DWORK_DIR=<dir>
#         -P memory_gate.cmake
#
# Few genes x many samples make the matrices dominate the process. One
# value matrix (V: genes x padded samples x 4 bytes, the size of the uint32
# ranks too) and the sweep's uint16 staged copy (V / 2) are what the build
# needs; every stage holds the matrix once, so the manifest's peaks
# (getrusage, recorded as each stage closes) must stay within
#   preprocess (read, impute, filter, rank):  V + slack
#   the whole run:                            V + V / 2 + slack
# where the slack covers the process itself, the weight tables, the null
# and the sweep's scratch. A build that keeps a second matrix anywhere
# (the float values beside their ranks, a staging copy while reading or
# filtering) exceeds the first bound by V or the second by V / 2.

if(NOT TINGE_CLI OR NOT INPUT_WRITER OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTINGE_CLI=... -DINPUT_WRITER=... "
                      "-DWORK_DIR=... -P memory_gate.cmake")
endif()

set(genes 256)
set(samples 16384)   # a multiple of 16: no row padding; uint16 staging
set(slack_mib 10)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(COMMAND "${INPUT_WRITER}" ${WORK_DIR}/wide.tsv ${genes}
                        ${samples}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "memory_gate_input failed (exit ${rc})")
endif()

execute_process(COMMAND "${TINGE_CLI}" --in=${WORK_DIR}/wide.tsv
                        --permutations=200 --alpha=0.001 --threads=2 --quiet
                        --out=${WORK_DIR}/network.tsv
                        --metrics-out=${WORK_DIR}/manifest.json
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 300)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tinge_cli failed (exit ${rc}):\n${out}\n${err}")
endif()
file(REMOVE "${WORK_DIR}/wide.tsv")

file(READ "${WORK_DIR}/manifest.json" manifest)
string(JSON run_peak GET "${manifest}" stages peak_rss_mb)
string(JSON peak_stage GET "${manifest}" peak_stage)
string(JSON stage_count LENGTH "${manifest}" stages children)
set(preprocess_peak "")
set(report "")
math(EXPR last "${stage_count} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${manifest}" stages children ${i} name)
  string(JSON peak GET "${manifest}" stages children ${i} peak_rss_mb)
  string(APPEND report "  ${name}: ${peak} MiB\n")
  if(name STREQUAL "preprocess")
    set(preprocess_peak ${peak})
  endif()
endforeach()
if(preprocess_peak STREQUAL "")
  message(FATAL_ERROR "the manifest has no preprocess stage")
endif()

# Bounds in KiB (CMake's math is integer-only): V = genes x samples x 4 B.
math(EXPR value_kib "${genes} * ${samples} * 4 / 1024")
math(EXPR preprocess_bound_kib "${value_kib} + ${slack_mib} * 1024")
math(EXPR run_bound_kib "${value_kib} + ${value_kib} / 2 + ${slack_mib} * 1024")
foreach(peak_name preprocess_peak run_peak)
  string(REGEX REPLACE "\\..*$" "" whole "${${peak_name}}")
  math(EXPR ${peak_name}_kib "(${whole} + 1) * 1024")  # round up
endforeach()
message(STATUS "per-stage peaks (run ${run_peak} MiB, set in ${peak_stage}):\n"
               "${report}")
if(preprocess_peak_kib GREATER preprocess_bound_kib)
  message(FATAL_ERROR "preprocess peaked at ${preprocess_peak} MiB, above one "
          "value matrix + ${slack_mib} MiB (${preprocess_bound_kib} KiB)")
endif()
if(run_peak_kib GREATER run_bound_kib)
  message(FATAL_ERROR "the build peaked at ${run_peak} MiB, above one value "
          "matrix + one staged copy + ${slack_mib} MiB (${run_bound_kib} KiB)")
endif()
