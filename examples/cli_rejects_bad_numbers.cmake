# Every malformed numeric flag value must be a usage error (exit code 2)
# before any work starts: trailing characters, a sign on an unsigned flag
# and units glued to a double are all rejected, never read as a prefix or
# wrapped around.  Each case is one `flag=value` pair.  The per-run timeout
# stops a binary that accepts a wrapped count from running unbounded.
set(cases
  --iterations=16abc
  --samples=20x
  --seed=7x
  --t-lat=1.2ms
  --iterations=-1)
foreach(case IN LISTS cases)
  string(REPLACE "=" ";" args "${case}")
  execute_process(
    COMMAND ${YOSO_CLI} ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "yoso_cli ${case} exited with '${rc}', expected 2")
  endif()
  if(NOT err MATCHES "bad value")
    message(FATAL_ERROR "yoso_cli ${case} did not report a bad value: ${err}")
  endif()
endforeach()
