#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs tests under it. Any sanitizer
# report fails the run.
#
#   scripts/check_sanitize.sh asan    # AddressSanitizer + UBSan, full suite
#   scripts/check_sanitize.sh ubsan   # UBSan alone, full suite
#   scripts/check_sanitize.sh tsan    # ThreadSanitizer, concurrency suites
#
# TSan is incompatible with ASan/UBSan in one binary, so it gets its own
# mode and build dir. By default it runs only the suites that actually
# spin up threads (parallel stripes, cancellation, thread pool, exec
# context) — the single-threaded suites would just dilute the interleaving
# coverage; set TEST_REGEX= to run everything.
#
# Env overrides: BUILD_DIR, JOBS, TEST_REGEX, plus the usual
# ASAN_OPTIONS/UBSAN_OPTIONS/TSAN_OPTIONS.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-asan}"
JOBS="${JOBS:-$(nproc)}"

case "$MODE" in
  asan)
    SANITIZE="address,undefined"
    TEST_REGEX="${TEST_REGEX-}"
    ;;
  ubsan)
    SANITIZE="undefined"
    TEST_REGEX="${TEST_REGEX-}"
    ;;
  tsan)
    SANITIZE="thread"
    TEST_REGEX="${TEST_REGEX-Parallel|Cancellation|ThreadPool|ExecContext|Deadline|Engine}"
    ;;
  *)
    echo "usage: $0 asan|ubsan|tsan" >&2
    exit 2
    ;;
esac

BUILD_DIR="${BUILD_DIR:-$ROOT/build-$MODE}"

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSLAM_SANITIZE="$SANITIZE" \
  -DSLAM_BUILD_BENCHMARKS=OFF \
  -DSLAM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$JOBS"

# halt_on_error makes a finding fail the test instead of just logging it.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

CTEST_ARGS=(--test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS")
if [[ -n "$TEST_REGEX" ]]; then
  CTEST_ARGS+=(-R "$TEST_REGEX")
fi
ctest "${CTEST_ARGS[@]}"
