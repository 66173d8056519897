#!/usr/bin/env bash
# Build the whole tree with ASan + UBSan (the asan-ubsan CMake
# preset) and run the full ctest suite under the sanitizers, then a
# small fleet: each host streams its executions through buffers it
# reuses, across multi-app hosts whose executions grow and shrink.
# Then build again with ThreadSanitizer in build-tsan and run the
# thread pool's tests, its two engine callers (test_parallel also has
# two threads ask one engine for one cell), the span recorder's
# tests (several threads recording at once) and the default suite
# at four jobs, which nests parallelFor calls three deep and records
# a span profile with counters from every thread.
#
# usage: tools/run_sanitizers.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

cmake --preset asan-ubsan
cmake --build build-sanitize -j "$JOBS"

# halt_on_error makes UBSan findings fail the test run instead of
# merely printing; leaks are reported by ASan's exit-time checker.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"

ctest --test-dir build-sanitize --output-on-failure
build-sanitize/bench/bench_all --report fleet --hosts 16 --jobs 2 --json -

# ThreadSanitizer fails the process (exit 66) on any report.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "$JOBS" \
    --target test_thread_pool test_parallel test_fleet test_timeline \
    bench_all
export TSAN_OPTIONS="halt_on_error=1"
build-tsan/tests/test_thread_pool
build-tsan/tests/test_parallel
build-tsan/tests/test_fleet
build-tsan/tests/test_timeline
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
build-tsan/bench/bench_all --jobs 4 --json - \
    --trace-profile "$profile" --perf
