#!/usr/bin/env bash
# Build the fuzzing harness and smoke every target against its seed corpus.
#
# With clang installed this runs real libFuzzer (coverage-guided, ASan +
# UBSan) for $SLAM_FUZZ_SECONDS per target — the same thing CI's
# fuzz-smoke lane does. Without clang it falls back to the standalone
# corpus-replay drivers, which still executes every seed under the
# configured sanitizers.
#
# Usage: scripts/run_fuzz.sh [build-dir]
#   SLAM_FUZZ_SECONDS   per-target libFuzzer budget (default 60)
#   SLAM_FUZZ_JOBS      parallel build jobs (default: nproc)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-fuzz}"
seconds="${SLAM_FUZZ_SECONDS:-60}"
jobs="${SLAM_FUZZ_JOBS:-$(nproc)}"

cmake_args=(-DSLAM_FUZZ=ON -DSLAM_SANITIZE=address,undefined
            -DSLAM_BUILD_BENCHMARKS=OFF -DSLAM_BUILD_EXAMPLES=OFF
            -DSLAM_BUILD_TESTS=OFF -DCMAKE_BUILD_TYPE=RelWithDebInfo)
if [ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]; then
  cmake_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER")
fi
have_libfuzzer=0
if command -v clang++ >/dev/null 2>&1; then
  cmake_args+=(-DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++)
  have_libfuzzer=1
else
  echo "clang++ not found: building standalone corpus-replay drivers" >&2
fi

cmake -B "$build_dir" -S "$repo_root" "${cmake_args[@]}"
cmake --build "$build_dir" -j "$jobs" --target \
  fuzz_csv fuzz_density fuzz_differential

mkdir -p "$build_dir/fuzz-artifacts"
status=0
for name in csv density differential; do
  corpus="$repo_root/fuzz/corpus/$name"
  crashers="$repo_root/fuzz/crashers/$name"
  extra_dirs=()
  [ -d "$crashers" ] && extra_dirs+=("$crashers")
  echo "=== fuzz_$name ==="
  if [ "$have_libfuzzer" = 1 ]; then
    # Mutate into a build-local working corpus so the checked-in seeds
    # stay pristine; crashers land in fuzz-artifacts/ for upload.
    work="$build_dir/fuzz-corpus/$name"
    mkdir -p "$work"
    cp "$corpus"/* "$work/" 2>/dev/null || true
    if ! "$build_dir/fuzz/fuzz_$name" \
        -max_total_time="$seconds" -timeout=30 -rss_limit_mb=2048 \
        -artifact_prefix="$build_dir/fuzz-artifacts/${name}-" \
        "$work" "${extra_dirs[@]}"; then
      echo "fuzz_$name FAILED" >&2
      status=1
    fi
  else
    if ! "$build_dir/fuzz/fuzz_$name" "$corpus" "${extra_dirs[@]}"; then
      echo "fuzz_$name FAILED" >&2
      status=1
    fi
  fi
done
exit "$status"
