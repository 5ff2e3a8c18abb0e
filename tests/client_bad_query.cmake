# tinge_client must reject an unknown --query before it dials a daemon:
# exit 2 and "error: unknown --query=...", even when nothing listens on the
# port (port 1 is never a tinge_serve daemon).
execute_process(COMMAND ${TINGE_CLIENT} --port=1 --query=bogus
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${exit_code}: ${out}${err}")
endif()
if(NOT err MATCHES "error: unknown --query=bogus")
  message(FATAL_ERROR "unexpected stderr: ${err}")
endif()
