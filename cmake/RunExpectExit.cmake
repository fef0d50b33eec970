# Exit-status check for the CLI count flags, invoked by ctest entries
# in tests/CMakeLists.txt:
#
#   cmake -DBIN=<binary> -DARGS="<space-separated arguments>"
#         -DEXPECT=<exit status> -DFLAG=<flag> -P cmake/RunExpectExit.cmake
#
# Passes when the binary exits with exactly EXPECT (an abort or a zero
# status fails), prints nothing to stdout (the value is rejected before any
# simulation work) and names FLAG in its stderr message.
if(NOT DEFINED BIN OR NOT DEFINED EXPECT OR NOT DEFINED FLAG)
  message(FATAL_ERROR "RunExpectExit.cmake needs -DBIN=, -DEXPECT=, -DFLAG=")
endif()
separate_arguments(bin_args UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND "${BIN}" ${bin_args}
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr
  RESULT_VARIABLE run_rc)
if(NOT run_rc STREQUAL EXPECT)
  message(FATAL_ERROR
          "${BIN} ${ARGS} exited with ${run_rc}, expected ${EXPECT}\n"
          "${run_stderr}")
endif()
if(NOT run_stdout STREQUAL "")
  message(FATAL_ERROR "${BIN} ${ARGS} wrote stdout:\n${run_stdout}")
endif()
string(FIND "${run_stderr}" "${FLAG}" flag_at)
if(flag_at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not name ${FLAG}:\n"
          "${run_stderr}")
endif()
