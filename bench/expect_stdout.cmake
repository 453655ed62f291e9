# Run one bench and require its stdout to match a committed file byte
# for byte. Fails on a nonzero exit, or prints `diff -u` of the expected
# and actual output and fails on any difference.
#
#   cmake -DBENCH=<binary> -DARGS=<args> -DEXPECTED=<file> -DACTUAL=<file>
#         -P expect_stdout.cmake
#
# ACTUAL is where the captured stdout is written for the diff. To
# re-record an expected file, redirect the bench's stdout over it (see
# README, "Pinned bench output").

foreach(var BENCH EXPECTED ACTUAL)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "expect_stdout.cmake: -D${var}= is required")
    endif()
endforeach()

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
file(WRITE "${ACTUAL}" "${actual}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${status}")
endif()

file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
    # Uncaptured, so the diff reaches the test log verbatim.
    execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
    message(FATAL_ERROR
        "${BENCH} ${ARGS}: stdout differs from ${EXPECTED} (diff above)")
endif()
