# Runs one paper bench at workload knob 1 and fails unless its stdout is
# byte for byte the committed expected file (bench/expected/<bench>.txt):
#
#   cmake -DBENCH=<binary> -DEXPECTED=<file> -DACTUAL=<file>
#         [-DMANIFEST_DIR=<dir>] -P check_stdout.cmake
#
# MANIFEST_DIR is passed as --manifest-dir= to the sweep-shaped benches, so
# that build trees testing at once do not share a directory. The actual
# stdout stays in ACTUAL for inspection (diff it against EXPECTED).
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
set(args 1)
if(MANIFEST_DIR)
  list(APPEND args "--manifest-dir=${MANIFEST_DIR}")
endif()
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                ERROR_VARIABLE progress
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${progress}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${EXPECTED}" "${ACTUAL}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED}; "
                      "it is in ${ACTUAL}")
endif()
