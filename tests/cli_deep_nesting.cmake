# Runs `cloudwf info` on a workflow JSON and a DAX file nested 1,000,000
# levels deep.  Each must be rejected with exit code 1 and a one-line
# "nesting too deep" error, never a crash.
string(REPEAT "[" 1000000 json_open)
string(REPEAT "]" 1000000 json_close)
file(WRITE "${DIR}/deep.json" "${json_open}${json_close}")
string(REPEAT "<a>" 1000000 dax_open)
string(REPEAT "</a>" 1000000 dax_close)
file(WRITE "${DIR}/deep.dax" "${dax_open}${dax_close}")

foreach(name deep.json deep.dax)
  execute_process(COMMAND "${CLI}" info "${DIR}/${name}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE error)
  string(STRIP "${error}" error)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "cloudwf info ${name}: exit ${code}, expected 1: ${error}")
  endif()
  if(error MATCHES "\n" OR NOT error MATCHES "^cloudwf: .*nesting too deep at offset")
    message(FATAL_ERROR "cloudwf info ${name}: unexpected error output:\n${error}")
  endif()
endforeach()
