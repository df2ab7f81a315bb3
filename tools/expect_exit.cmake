# Runs a program and checks how it fails: usage in a ctest is
#   cmake -DPROG=<exe> "-DARGS=<space-separated args>" -DEXPECT_EXIT=<code>
#         "-DEXPECT_STDERR=<regex>" -P expect_exit.cmake
# The test fails unless PROG exits with EXPECT_EXIT and its stderr matches
# EXPECT_STDERR (ctest's PASS_REGULAR_EXPRESSION alone ignores the code).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${PROG} ${ARGS}: exit ${code}, want ${EXPECT_EXIT}\n"
                      "stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${PROG} ${ARGS}: stderr does not match "
                      "'${EXPECT_STDERR}'\nstderr: ${err}")
endif()
