#!/usr/bin/env bash
# Build the whole tree with ASan + UBSan (the asan-ubsan CMake
# preset) and run the full ctest suite under the sanitizers, then a
# small fleet: each host streams its executions through buffers it
# reuses, across multi-app hosts whose executions grow and shrink.
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
