# A report name that matches no report is a usage error (exit 2), also
# when another name in the same --only list matches.
#
# usage: cmake -DBENCH_ALL=<bench_all> -P only_unknown.cmake
foreach(names multistate table2,multistate)
    execute_process(
        COMMAND "${BENCH_ALL}" --only ${names} --json -
        RESULT_VARIABLE result
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT result EQUAL 2)
        message(FATAL_ERROR "--only ${names} exited with ${result}, "
            "not 2:\n${out}${err}")
    endif()
    if(NOT err MATCHES "'multistate'")
        message(FATAL_ERROR "--only ${names} does not name the unknown "
            "report:\n${err}")
    endif()
endforeach()
