# Checks tools/metrics_diff.py and tools/compare_bench.py against the
# .prom files of two one-report bench_all runs, at --jobs 1 and 4:
#   - the two .prom files agree (exit 0);
#   - one edited sample value is a regression (exit 1);
#   - a malformed line is bad input (exit 2, naming file and line);
#   - compare_bench passes with the candidate's .prom, and fails
#     without it.
#
# usage: cmake -DBENCH_ALL=<bench_all> -DPYTHON=<python3>
#              -DTOOLS=<tools dir> -DWORK_DIR=<dir> -P prom_tools.cmake

# Runs ${ARGN} and fails unless it exits with ${expected}; the
# combined output lands in ${out}.
function(expect_exit expected out)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE result
        OUTPUT_VARIABLE stdout
        ERROR_VARIABLE stderr)
    if(NOT result EQUAL expected)
        message(FATAL_ERROR "exit ${result}, expected ${expected}: "
            "${ARGN}\n${stdout}${stderr}")
    endif()
    set(${out} "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(jobs 1 4)
    expect_exit(0 out "${BENCH_ALL}" --only table1 --jobs ${jobs}
        --log-level warn --json "${WORK_DIR}/j${jobs}.json")
endforeach()
set(diff "${PYTHON}" "${TOOLS}/metrics_diff.py" "${WORK_DIR}/j1.prom")
expect_exit(0 out ${diff} "${WORK_DIR}/j4.prom")

file(READ "${WORK_DIR}/j4.prom" prom)
set(sample "pcap_file_cache_hits_total")
if(NOT prom MATCHES "\n(${sample}[^ \n]*) ([0-9]+)\n")
    message(FATAL_ERROR "no ${sample} sample in j4.prom")
endif()
math(EXPR edited "${CMAKE_MATCH_2} + 1")
string(REPLACE "${CMAKE_MATCH_0}" "\n${CMAKE_MATCH_1} ${edited}\n"
    edited_prom "${prom}")
file(WRITE "${WORK_DIR}/edited.prom" "${edited_prom}")
expect_exit(1 out ${diff} "${WORK_DIR}/edited.prom")
if(NOT out MATCHES "CHANGED  ${sample}")
    message(FATAL_ERROR "the edited sample is not reported:\n${out}")
endif()

file(WRITE "${WORK_DIR}/malformed.prom" "${prom}${sample}{app=\"x\" 1\n")
expect_exit(2 out ${diff} "${WORK_DIR}/malformed.prom")
if(NOT out MATCHES "malformed\\.prom:[0-9]+: malformed sample line")
    message(FATAL_ERROR "the malformed line is not named:\n${out}")
endif()

set(compare "${PYTHON}" "${TOOLS}/compare_bench.py" "${WORK_DIR}/j1.json"
    "${WORK_DIR}/j4.json")
expect_exit(0 out ${compare})
file(REMOVE "${WORK_DIR}/j4.prom")
expect_exit(1 out ${compare})
if(NOT out MATCHES "no metrics file")
    message(FATAL_ERROR "compare_bench does not name the missing .prom:\n"
        "${out}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
