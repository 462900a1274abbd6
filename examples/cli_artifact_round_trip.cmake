# Saves the Step-1 fast evaluator with --save-artifact, restores it with
# --load-artifact, and fails unless both runs write bit-identical finalist
# CSVs.  Covers both GP backends; the restored run takes its backend and
# inducing-point count from the artifact (docs/ARTIFACTS.md).
foreach(backend exact sparse)
  set(backend_flags "")
  if(backend STREQUAL "sparse")
    set(backend_flags --predictor sparse --inducing-points 32)
  endif()
  set(artifact ${WORK_DIR}/round_trip_${backend}.bin)
  set(saved ${WORK_DIR}/round_trip_${backend}_saved.csv)
  set(loaded ${WORK_DIR}/round_trip_${backend}_loaded.csv)

  execute_process(
    COMMAND ${YOSO_CLI}
      --samples 80 --iterations 40 --seed 7 ${backend_flags}
      --save-artifact ${artifact} --finalists ${saved}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "yoso_cli --save-artifact (${backend}) exited with ${rc}")
  endif()

  execute_process(
    COMMAND ${YOSO_CLI}
      --load-artifact ${artifact} --iterations 40 --seed 7
      --finalists ${loaded}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "yoso_cli --load-artifact (${backend}) exited with ${rc}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${saved} ${loaded}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
      "finalists differ between the --save-artifact run and the "
      "--load-artifact run (${backend} GP backend); the artifact does not "
      "restore the fast evaluator bit-identically")
  endif()
endforeach()
