# A bench harness must reject an unknown flag cleanly: exit 2 and
# "error: unknown option ..." on stderr, not an uncaught-exception abort.
execute_process(COMMAND ${BENCH} --bogus
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${exit_code}: ${out}${err}")
endif()
if(NOT err MATCHES "error: unknown option")
  message(FATAL_ERROR "unexpected stderr: ${err}")
endif()
