# Runs serve_run once per out-of-range flag value and requires each run to
# exit 2 with an error naming the flag (before any model is loaded).
#
# Usage: cmake -DSERVE_RUN=<path to serve_run> -P check_rejected_flags.cmake
foreach(arg "--max_streams=-3" "--capacity=-1" "--interarrival=-1")
  execute_process(COMMAND "${SERVE_RUN}" "${arg}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  string(REGEX MATCH "^--[a-z_]+" flag "${arg}")
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "serve_run ${arg}: exit ${code}, want 2")
  endif()
  string(FIND "${err}" "error: ${flag}:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "serve_run ${arg}: error does not name ${flag}: ${err}")
  endif()
endforeach()
