# Passes only if `${BIN} ${ARG}` exits 2 and its message names the rejected
# argument, every flag and the figure list: a crash or a silent run fails.
#   cmake -DBIN=path/to/bench_paper -DARG=--smoke -P expect_usage_error.cmake
execute_process(COMMAND ${BIN} ${ARG}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${rc}'\n${out}${err}")
endif()
string(REGEX REPLACE "^--figure=" "" rejected "${ARG}")
foreach(word "${rejected}" --figure=NAME|all --quick --csv --seed=N --metrics-json=F
        figures: fig2 overhead group-spectrum delta lossy-burst)
  string(FIND "${err}" "${word}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "usage message lacks '${word}':\n${err}")
  endif()
endforeach()
