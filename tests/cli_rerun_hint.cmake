# A failed tcp cluster run prints the command that reruns it. It may
# promise that checkpointed tiles replay from the journal only when the run
# was given one (--checkpoint); either way it says the result is
# byte-identical, since the pipeline is deterministic.

if(NOT TINGE_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTINGE_CLI=... -DWORK_DIR=... -P cli_rerun_hint.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(replay "checkpointed tiles replay from the journal")
foreach(journal OFF ON)
  set(extra "")
  if(journal)
    set(extra --checkpoint=${WORK_DIR}/run.ckpt)
  endif()
  execute_process(COMMAND "${TINGE_CLI}" --synthetic=60 --cluster=2
                          --transport=tcp --fault=rank=1,kill-after=3
                          --permutations=300 --quiet --recv-timeout=20
                          --out=${WORK_DIR}/network.tsv ${extra}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(rc EQUAL 0)
    message(FATAL_ERROR "journal=${journal}: the faulted run succeeded:\n${out}")
  endif()
  if(NOT err MATCHES "\nto rerun \\(([^)]*)the result is byte-identical\\):\n  [^\n]*tinge_cli")
    message(FATAL_ERROR "journal=${journal}: no rerun command:\n${err}")
  endif()
  string(FIND "${err}" "${replay}" promise)
  if(journal AND promise EQUAL -1)
    message(FATAL_ERROR "with --checkpoint the rerun hint omits the replay:\n${err}")
  endif()
  if(NOT journal AND NOT promise EQUAL -1)
    message(FATAL_ERROR "without --checkpoint the rerun hint promises a replay:\n${err}")
  endif()
endforeach()
