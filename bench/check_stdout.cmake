# Runs one paper bench at workload knob 1 and fails unless its stdout is
# byte for byte the committed expected file (bench/expected/<bench>.txt):
#
#   cmake -DBENCH=<binary> -DEXPECTED=<file> -DACTUAL=<file>
#         [-DMANIFEST_DIR=<dir> -DEXPECTED_RESULTS=<file>]
#         -P check_stdout.cmake
#
# MANIFEST_DIR is passed as --manifest-dir= to the benches that write
# results files, so that build trees testing at once do not share a
# directory. The actual stdout stays in ACTUAL for inspection (diff it
# against EXPECTED).
#
# The printed tables round most figures to 4 decimals, so such a bench
# also pins the SHA-256 of every *.results.jsonl it writes into
# MANIFEST_DIR: EXPECTED_RESULTS (bench/expected/<bench>.results.sha256)
# holds one `sha256sum` line, "<hex>  <file name>", per file. A missing,
# extra or differing results file fails the check and is named.
cmake_minimum_required(VERSION 3.16)

get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
set(args 1)
if(MANIFEST_DIR)
  # A results file left by an earlier run must not pass for this run's.
  file(GLOB stale "${MANIFEST_DIR}/*.results.jsonl")
  if(stale)
    file(REMOVE ${stale})
  endif()
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

if(EXPECTED_RESULTS)
  file(STRINGS "${EXPECTED_RESULTS}" lines)
  set(expected_names "")
  set(failures "")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
      message(FATAL_ERROR "${EXPECTED_RESULTS}: malformed line '${line}'")
    endif()
    set(want "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    list(APPEND expected_names "${name}")
    if(NOT EXISTS "${MANIFEST_DIR}/${name}")
      list(APPEND failures "missing: ${MANIFEST_DIR}/${name}")
      continue()
    endif()
    file(SHA256 "${MANIFEST_DIR}/${name}" got)
    if(NOT got STREQUAL want)
      list(APPEND failures "differs: ${MANIFEST_DIR}/${name}")
    endif()
  endforeach()
  file(GLOB written RELATIVE "${MANIFEST_DIR}"
       "${MANIFEST_DIR}/*.results.jsonl")
  foreach(name IN LISTS written)
    if(NOT name IN_LIST expected_names)
      list(APPEND failures "extra: ${MANIFEST_DIR}/${name}")
    endif()
  endforeach()
  if(failures)
    list(JOIN failures "\n  " text)
    message(FATAL_ERROR "results of ${BENCH} do not match "
                        "${EXPECTED_RESULTS}:\n  ${text}")
  endif()
endif()
