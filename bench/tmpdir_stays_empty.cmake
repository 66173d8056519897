# Runs one report with TMPDIR pointing at a fresh empty directory and
# fails if bench_all leaves anything behind there.
#
# usage: cmake -DBENCH_ALL=<bench_all> -DWORK_DIR=<dir> -P tmpdir_stays_empty.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{TMPDIR} "${WORK_DIR}")
unset(ENV{PCAP_WORKLOAD_CACHE})
execute_process(
    COMMAND "${BENCH_ALL}" --only table1 --json -
    RESULT_VARIABLE result
    OUTPUT_QUIET)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "bench_all exited with ${result}")
endif()
file(GLOB_RECURSE left LIST_DIRECTORIES true "${WORK_DIR}/*")
if(left)
    message(FATAL_ERROR "bench_all left files under TMPDIR: ${left}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
