# Runs the default suite at --jobs 1 and at --jobs 4 and checks, from
# each run's own results, that --jobs bounds the thread pool: it
# started at most jobs - 1 workers (none at --jobs 1), and its summed
# task wall time is at most jobs x the run's total wall time.
#
# usage: cmake -DBENCH_ALL=<bench_all> -DWORK_DIR=<dir>
#              -P jobs_bound.cmake

# Sets ${out} to the whole microseconds in the decimal string
# ${value} of ${unit}s: "s" or "ms". %g prints values under 1e-4 with
# a negative exponent; they count as 0.
function(to_micros value unit out)
    if(value MATCHES "e-")
        set(${out} 0 PARENT_SCOPE)
        return()
    endif()
    if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?$")
        message(FATAL_ERROR "not a plain decimal: '${value}'")
    endif()
    set(whole "${CMAKE_MATCH_1}")
    set(digits 6)
    if(unit STREQUAL "ms")
        set(digits 3)
    endif()
    string(SUBSTRING "${CMAKE_MATCH_3}000000" 0 ${digits} frac)
    math(EXPR micros "${whole}${frac}")
    set(${out} ${micros} PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(jobs 1 4)
    set(stem "${WORK_DIR}/jobs${jobs}")
    execute_process(
        COMMAND "${BENCH_ALL}" --jobs ${jobs} --json "${stem}.json"
        RESULT_VARIABLE result
        OUTPUT_QUIET
        ERROR_QUIET)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "bench_all --jobs ${jobs} exited with ${result}")
    endif()
    file(READ "${stem}.json" doc)
    string(JSON total_ms GET "${doc}" timings_ms total)
    file(STRINGS "${stem}.prom" workers_line
        REGEX "^pcap_thread_pool_workers ")
    file(STRINGS "${stem}.prom" wall_line
        REGEX "^pcap_thread_pool_task_wall_seconds ")
    if(NOT workers_line OR NOT wall_line)
        message(FATAL_ERROR "--jobs ${jobs}: pool metrics missing")
    endif()
    string(REPLACE " " ";" workers_line "${workers_line}")
    list(GET workers_line 1 workers)
    string(REPLACE " " ";" wall_line "${wall_line}")
    list(GET wall_line 1 task_wall)

    to_micros("${total_ms}" ms total_us)
    to_micros("${task_wall}" s task_us)
    math(EXPR max_workers "${jobs} - 1")
    math(EXPR max_task_us "${jobs} * ${total_us}")
    message(STATUS "--jobs ${jobs}: ${workers} workers, task wall "
        "${task_wall} s, total ${total_ms} ms")
    if(workers GREATER max_workers)
        message(FATAL_ERROR "--jobs ${jobs} started ${workers} pool "
            "workers, over ${max_workers}")
    endif()
    if(task_us GREATER max_task_us)
        message(FATAL_ERROR "--jobs ${jobs}: pool task wall ${task_wall} s "
            "exceeds ${jobs} x total ${total_ms} ms")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
