# Run one report bench and compare its stdout byte-for-byte with its
# golden file. Invoked by ctest (see bench/CMakeLists.txt) as
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P golden_check.cmake
# On a mismatch the actual output is left in ACTUAL for diffing.
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; actual output in "
                      "${ACTUAL} (diff the two files)")
endif()
