# Runs `DSEXP NAME` and compares its stdout with GOLDEN:
#   cmake -DDSEXP=<dsexp> -DNAME=<experiment> -DGOLDEN=<file> -P golden_check.cmake
# On a mismatch it writes NAME.actual.txt in the working directory,
# shows the diff and prints the cp line that adopts the new output.
execute_process(COMMAND ${DSEXP} ${NAME}
                OUTPUT_VARIABLE actual ERROR_VARIABLE errors
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME}: dsexp exited ${rc}\n${errors}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
    set(out ${CMAKE_CURRENT_BINARY_DIR}/${NAME}.actual.txt)
    file(WRITE ${out} "${actual}")
    execute_process(COMMAND diff ${GOLDEN} ${out})
    message(FATAL_ERROR "${NAME}: output differs from the golden. "
            "If the change is meant, adopt it and say why in CHANGES.md:\n"
            "  cp ${out} ${GOLDEN}")
endif()
