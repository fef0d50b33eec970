# Golden-stdout diff driver, invoked by ctest entries in tests/CMakeLists.txt:
#
#   cmake -DBIN=<binary> -DGOLDEN=<committed .txt> -DOUT=<scratch file>
#         [-DARGS="<space-separated binary arguments>"]
#         -P cmake/RunGolden.cmake
#
# Runs the figure binary (with ARGS, e.g. a reduced --runs, when given),
# captures stdout (stderr is allowed to carry the human-readable timing
# summary and is not part of the contract), and byte-compares against the
# committed golden. The solvers are bit-deterministic for any --threads and
# with the metrics kill switch on or off, so the goldens hold across every
# CI leg and thread count.
#
# Regenerating after an intended output change (BIN is the bench or
# example binary in the build tree):
#   <BIN> <ARGS> 2>/dev/null > tests/goldens/<stem>.txt
if(NOT DEFINED BIN OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
  message(FATAL_ERROR "RunGolden.cmake needs -DBIN=, -DGOLDEN=, -DOUT=")
endif()
separate_arguments(bin_args UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND "${BIN}" ${bin_args}
  OUTPUT_FILE "${OUT}"
  ERROR_VARIABLE run_stderr
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${run_rc}\n${run_stderr}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}" OUTPUT_VARIABLE diff_text
                  ERROR_VARIABLE diff_text)
  message(FATAL_ERROR
          "stdout differs from golden ${GOLDEN}\n${diff_text}\n"
          "If the change is intended, regenerate with:\n"
          "  ${BIN} ${ARGS} 2>/dev/null > ${GOLDEN}")
endif()
