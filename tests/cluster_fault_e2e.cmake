# End-to-end fault-tolerance check for the cluster runtime, run as a ctest
# script:
#
#   cmake -DTINGE_CLI=<path> -DWORK_DIR=<dir> -P cluster_fault_e2e.cmake
#
# Scenario (the acceptance criterion of the fault-tolerance layer):
#   * a 4-rank TCP run with an injected mid-sweep kill on rank 1 must
#     terminate promptly (well inside the recv deadline + teardown grace),
#     exit nonzero, and name the first failed rank in the failure manifest;
#   * the resume command the CLI prints (this invocation minus --fault)
#     must complete and produce a byte-identical edge list to an unfaulted
#     run of the same seeded input.

if(NOT TINGE_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTINGE_CLI=... -DWORK_DIR=... -P cluster_fault_e2e.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --synthetic=60 --permutations=300 --alpha=0.01 --quiet)

function(run_cli)
  execute_process(COMMAND "${TINGE_CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tinge_cli ${ARGN} failed (exit ${rc}):\n${out}\n${err}")
  endif()
endfunction()

function(require_identical reference candidate)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${reference}" "${candidate}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${candidate} differs from ${reference}")
  endif()
endfunction()

function(require_manifest_key path key)
  file(READ "${path}" manifest)
  string(FIND "${manifest}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${path} is missing ${key}")
  endif()
endfunction()

# Baseline: the unfaulted network this seeded input must produce.
run_cli(${COMMON} --cluster=4 --transport=tcp --out=${WORK_DIR}/base.tsv)

# Faulted run: rank 1 is killed (simulated crash, no unwinding) at its
# fifth data op, mid-sweep. Must fail fast — the 20 s recv deadline is
# the backstop, not the expected path (the launcher reaps the corpse and
# tears the survivors down immediately) — and must fail attributably.
execute_process(COMMAND "${TINGE_CLI}" ${COMMON} --cluster=4 --transport=tcp
                        --recv-timeout=20
                        --fault=rank=1,kill-after=5,mode=exit
                        --out=${WORK_DIR}/faulted.tsv
                        --metrics-out=${WORK_DIR}/failure.json
                RESULT_VARIABLE fault_rc
                OUTPUT_VARIABLE fault_out
                ERROR_VARIABLE fault_err
                TIMEOUT 60)
if(fault_rc EQUAL 0)
  message(FATAL_ERROR "faulted run reported success:\n${fault_out}")
endif()

require_manifest_key(${WORK_DIR}/failure.json "\"status\": \"failed\"")
require_manifest_key(${WORK_DIR}/failure.json "\"first_failed_rank\": 1")
require_manifest_key(${WORK_DIR}/failure.json "\"resume_command\"")

# The printed diagnosis names the culprit and hands back a resume command.
string(FIND "${fault_err}" "rank 1 failed first" diag_pos)
if(diag_pos EQUAL -1)
  message(FATAL_ERROR "diagnosis does not attribute rank 1:\n${fault_err}")
endif()

# Replay the resume command exactly as the manifest recorded it: it must
# succeed and reproduce the unfaulted network byte-for-byte.
file(READ "${WORK_DIR}/failure.json" manifest)
string(REGEX MATCH "\"resume_command\": \"([^\"]+)\"" _ "${manifest}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "could not extract resume_command from failure.json")
endif()
separate_arguments(resume_args UNIX_COMMAND "${CMAKE_MATCH_1}")
execute_process(COMMAND ${resume_args}
                RESULT_VARIABLE resume_rc
                OUTPUT_VARIABLE resume_out
                ERROR_VARIABLE resume_err)
if(NOT resume_rc EQUAL 0)
  message(FATAL_ERROR "resume command failed (exit ${resume_rc}):\n${resume_out}\n${resume_err}")
endif()
require_identical(${WORK_DIR}/base.tsv ${WORK_DIR}/faulted.tsv)

# The resumed (successful) run overwrote the failure manifest with a
# normal cluster manifest.
require_manifest_key(${WORK_DIR}/failure.json "\"bytes_per_rank\"")

message(STATUS "cluster fault e2e: injected kill attributed, resume byte-identical")
