#!/usr/bin/env bash
# The end-to-end benchmark's single command. Run it from anywhere; it works
# in the repository root and builds phoenix_e2e from source into
# $CARGO_TARGET_DIR (default .bench_build) there.
#
#   benchmark/run.sh [--seed S] [--seconds T]
#       Builds, runs every workload untraced and traced, prints every metric
#       as "workload metric value unit", and exits 1 if any oracle failed.
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       One run. The last line of its output is the JSON result.
#   benchmark/run.sh --aa [--runs N]
#       Two full sets of N runs per workload (default 10, seeds 1..N); prints
#       each end-to-end metric's spread against its bound in BENCHMARK.json.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"

# Build output goes to a log, so a run's last output line stays its result.
mkdir -p "$build"
log="$build/build.log"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if ! cmake -S benchmark -B "$build" "${generator[@]}" > "$log" 2>&1; then
  tail -n 20 "$log" >&2
  exit 1
fi
jobs="$(nproc 2> /dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
if ! cmake --build "$build" --target phoenix_e2e -j "$jobs" >> "$log" 2>&1; then
  tail -n 20 "$log" >&2
  exit 1
fi
e2e="$build/phoenix_e2e"

if [ "${1:-}" = --aa ]; then
  shift
  exec python3 benchmark/aa.py --e2e "$e2e" "$@"
fi
for arg in "$@"; do
  case "$arg" in
    --workload | --workload=*)
      mkdir -p "$build/spans"
      exec "$e2e" --spans-dir="$build/spans" "$@"
      ;;
  esac
done

status=0
for workload in bookstore sessions4 crash_recover faults; do
  for trace in 0 1; do
    mkdir -p "$build/spans"
    if ! "$e2e" --workload="$workload" --trace="$trace" \
        --spans-dir="$build/spans" "$@" > "$build/last_run.txt"; then
      status=1
    fi
    grep -v '^{' "$build/last_run.txt" || true
  done
done
exit "$status"
