# End-to-end elastic-balancing check for the cluster runtime, run as a
# ctest script:
#
#   cmake -DTINGE_CLI=<path> -DWORK_DIR=<dir> -P cluster_elastic_e2e.cmake
#
# Scenarios (the acceptance criteria of the tile-lease sweep, the only
# distributed sweep, so every step runs the default cluster path):
#   * a 4-rank run under an injected 20 ms/tile straggler on rank 1 is
#     byte-identical to the single-process engine, and the leases must
#     actually move work off the straggler: it ends with at most a quarter
#     of the pairs, and steals > 0 (the CI gate);
#   * a run whose rank 0 is killed mid-sweep leaves a checkpoint journal
#     that resumes on a GROWN (4 -> 8) and a SHRUNK (4 -> 2) world size,
#     byte-identical to the single-process network, under inproc and tcp
#     transports alike.

if(NOT TINGE_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTINGE_CLI=... -DWORK_DIR=... -P cluster_elastic_e2e.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# 91 tiles: enough that the healthy ranks can take the straggler's share.
set(COMMON --synthetic=200 --permutations=300 --alpha=0.01 --tile=16 --quiet)
set(STRAGGLER --fault=rank=1,tile-delay-ms=20)

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

# Pulls a numeric field out of a run manifest into `var` in the caller.
function(manifest_number path key var)
  file(READ "${path}" manifest)
  string(REGEX MATCH "\"${key}\": ([0-9.eE+-]+)" _ "${manifest}")
  if("${CMAKE_MATCH_1}" STREQUAL "")  # a plain if() would reject a 0
    message(FATAL_ERROR "could not extract ${key} from ${path}")
  endif()
  set(${var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# Kills the run (expected nonzero exit), then checks the journal survived.
function(run_killed journal)
  execute_process(COMMAND "${TINGE_CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 120)
  if(rc EQUAL 0)
    message(FATAL_ERROR "killed run reported success:\n${out}")
  endif()
  if(NOT EXISTS "${journal}")
    message(FATAL_ERROR "killed run left no journal at ${journal}:\n${err}")
  endif()
endfunction()

# Baseline: the single-process network this seeded input must produce.
run_cli(${COMMON} --out=${WORK_DIR}/base.tsv)

# ---- straggler gate: the leases move work off the slow rank ---------------

run_cli(${COMMON} --cluster=4 ${STRAGGLER}
        --out=${WORK_DIR}/lease.tsv --metrics-out=${WORK_DIR}/lease.json)
require_identical(${WORK_DIR}/base.tsv ${WORK_DIR}/lease.tsv)
require_manifest_key(${WORK_DIR}/lease.json "\"leases_granted\"")

manifest_number(${WORK_DIR}/lease.json imbalance_pre lease_pre)
manifest_number(${WORK_DIR}/lease.json imbalance_post lease_post)
manifest_number(${WORK_DIR}/lease.json steals lease_steals)
manifest_number(${WORK_DIR}/lease.json pairs_computed pairs_total)
file(READ "${WORK_DIR}/lease.json" manifest)
string(REGEX MATCH "\"pairs_per_rank\": \\[([0-9, \t\r\n]*)\\]" _
       "${manifest}")
string(REGEX MATCHALL "[0-9]+" pairs_per_rank "${CMAKE_MATCH_1}")
list(LENGTH pairs_per_rank rank_count)
if(NOT rank_count EQUAL 4)
  message(FATAL_ERROR "expected 4 pairs_per_rank entries, got "
          "'${pairs_per_rank}'")
endif()
list(GET pairs_per_rank 1 straggler_pairs)
math(EXPR fair_share "${pairs_total} / 4")
# Busy-second ratios are printed, not gated: they swing with host load.
message(STATUS "straggler: ${straggler_pairs} of ${pairs_total} pairs, "
        "steals ${lease_steals}, imbalance pre ${lease_pre} "
        "post ${lease_post}")
if(straggler_pairs GREATER fair_share)
  message(FATAL_ERROR "the leases did not move work off the straggler: "
          "rank 1 computed ${straggler_pairs} of ${pairs_total} pairs, "
          "more than a quarter (${fair_share})")
endif()
if(lease_steals EQUAL 0)
  message(FATAL_ERROR "run under a straggler recorded zero steals")
endif()

# ---- elastic resume: kill rank 0 mid-sweep, resume on another world --------

foreach(transport inproc tcp)
  set(journal ${WORK_DIR}/${transport}.ckpt)
  foreach(resume_ranks 8 2)
    # The tile-delay keeps rank 0 slow enough that grant traffic (not its
    # own compute) carries its op count to the kill — so the kill lands
    # mid-sweep with tiles still outstanding, not in the release handshake.
    run_killed(${journal} ${COMMON} --cluster=4 --transport=${transport}
               --checkpoint=${journal}
               --fault=rank=0,tile-delay-ms=15,kill-after=20,mode=throw
               --out=${WORK_DIR}/killed.tsv)
    # The journal binds to (dataset, kernel, tile grid) — not the world
    # size — so 4-rank leftovers resume on ${resume_ranks} ranks.
    run_cli(${COMMON} --cluster=${resume_ranks} --transport=${transport}
            --checkpoint=${journal}
            --out=${WORK_DIR}/resumed.tsv)
    require_identical(${WORK_DIR}/base.tsv ${WORK_DIR}/resumed.tsv)
    if(EXISTS "${journal}")
      message(FATAL_ERROR "journal not removed after successful resume")
    endif()
  endforeach()
endforeach()

message(STATUS "cluster elastic e2e: straggler gate held, 4->8 and 4->2 "
        "resumes byte-identical on inproc and tcp")
