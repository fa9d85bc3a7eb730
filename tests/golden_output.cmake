# Runs BIN, writes its stdout to OUT and fails unless OUT is
# byte-identical to GOLDEN (cmake -E compare_files). Used by the
# figure golden tests registered in bench/CMakeLists.txt:
#   cmake -DBIN=<exe> -DOUT=<file> -DGOLDEN=<file> -P golden_output.cmake
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
