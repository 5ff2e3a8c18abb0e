# tinge_cli must reject a malformed --fault plan with its other flags,
# before it loads data or spawns a worker: exit 2 and one
# "error: fault plan: ..." line, over either transport.
foreach(transport tcp inproc)
  execute_process(COMMAND ${TINGE_CLI} --synthetic=60 --cluster=2
                          --transport=${transport} --fault=rank=1,kill-at=0.5
                  RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT exit_code EQUAL 2)
    message(FATAL_ERROR "${transport}: expected exit 2, got ${exit_code}: "
            "${out}${err}")
  endif()
  if(NOT err MATCHES "^error: fault plan: unknown key 'kill-at'[^\n]*\n$")
    message(FATAL_ERROR "${transport}: unexpected stderr: ${err}")
  endif()
  if(out MATCHES "cluster tcp: launching")
    message(FATAL_ERROR "${transport}: workers were launched: ${out}")
  endif()
endforeach()
