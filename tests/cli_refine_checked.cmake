# Schedules one workflow with every refining algorithm through the cloudwf
# CLI.  The test runs with CLOUDWF_CHECK=1, so each run and each move-sweep
# candidate reaches the invariant checker, and every sweep audits its
# candidates' makespans against their lower bounds, screened ones included.
#
#   cmake -DCLI=<cloudwf> -DWORKFLOW=<wf.json> -P cli_refine_checked.cmake
foreach(algorithm heft-budg-plus minmin-budg-plus cg-plus)
  execute_process(COMMAND "${CLI}" schedule "${WORKFLOW}" --algorithm ${algorithm}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE error)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "cloudwf schedule --algorithm ${algorithm} exited ${status}: ${error}")
  endif()
endforeach()
