# Runs `${BENCH} --quick` and fails unless its stdout equals ${GOLDEN} byte
# for byte. The paper benches print simulated time only, so their output is
# bit-stable; a change that moves it on purpose replaces the golden file and
# says why. The actual output is left in ${OUT} for `diff -u`.
execute_process(COMMAND "${BENCH}" --quick OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --quick exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout differs from the golden file:\n"
                      "  diff -u ${GOLDEN} ${OUT}")
endif()
