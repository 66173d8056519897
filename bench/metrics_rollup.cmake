# Runs the default suite under the default alert rules twice: with the
# per-application metric series rolled up (the default) and with
# --metrics-detail. Fails unless the rolled-up results file and its
# .prom (the run's metric series) together stay within 1 MiB, and the
# two runs' alerts blocks are identical: same verdicts, same values.
#
# usage: cmake -DBENCH_ALL=<bench_all> -DRULES=<rules.json>
#              -DWORK_DIR=<dir> -P metrics_rollup.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(run rollup detail)
    set(extra)
    if(run STREQUAL "detail")
        set(extra --metrics-detail)
    endif()
    execute_process(
        COMMAND "${BENCH_ALL}" --alerts "${RULES}" ${extra}
            --json "${WORK_DIR}/${run}.json"
        RESULT_VARIABLE result
        OUTPUT_QUIET
        ERROR_QUIET)
    # Exit 3 means a warn rule fired; the alerts block is complete.
    if(NOT result EQUAL 0 AND NOT result EQUAL 3)
        message(FATAL_ERROR "bench_all ${extra} exited with ${result}")
    endif()
    file(READ "${WORK_DIR}/${run}.json" doc)
    string(JSON alerts_${run} GET "${doc}" alerts)
endforeach()

file(SIZE "${WORK_DIR}/rollup.json" json_bytes)
file(SIZE "${WORK_DIR}/rollup.prom" prom_bytes)
math(EXPR total "${json_bytes} + ${prom_bytes}")
message(STATUS "rolled-up results ${json_bytes} B + .prom ${prom_bytes} B")
if(total GREATER 1048576)
    message(FATAL_ERROR "results file and .prom are ${total} B, over 1 MiB")
endif()
if(NOT alerts_rollup STREQUAL alerts_detail)
    message(FATAL_ERROR "alerts differ with --metrics-detail:\n"
        "${alerts_rollup}\n--- vs ---\n${alerts_detail}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
