#!/usr/bin/env bash
# Hardware-counter profile of the simulation core, for before/after
# comparisons when optimizing the harness itself (DESIGN.md §12,
# EXPERIMENTS.md):
#
#   tools/run_perf_stat.sh [build-dir] [benchmark-filter]
#
# Runs `perf stat` over `nodebench table 4|5|7 --runs 100` and the
# simcore google-benchmark suite. Arguments default to `build` and a filter
# matching the scheduler/ping-pong/truth benchmarks.
#
# Degrades gracefully: if `perf` is unavailable (not installed, or the
# kernel's perf_event_paranoid forbids counting), falls back to plain
# wall-clock timing so the script still yields a usable signal in
# containers and CI. Exit status is non-zero only if a benchmark binary
# itself fails.
set -euo pipefail

build_dir="${1:-build}"
filter="${2:-SwitchMode|SimulatedPingPong|LatencyTruth|InterNodeMeasure|EventQueue}"

gbench="${build_dir}/bench/bench_simcore_gbench"
if [[ ! -x "${gbench}" ]]; then
  echo "error: '${gbench}' not built" >&2
  echo "hint: cmake --build ${build_dir} -j --target bench_simcore_gbench" >&2
  exit 2
fi

events="task-clock,context-switches,cycles,instructions,branches,branch-misses,cache-references,cache-misses"

have_perf=0
if command -v perf >/dev/null 2>&1 && perf stat -e task-clock true >/dev/null 2>&1; then
  have_perf=1
else
  echo "note: perf unavailable (missing binary or perf_event_paranoid);" \
       "falling back to wall-clock timing" >&2
fi

run_profiled() {
  local label="$1"
  shift
  echo
  echo "== ${label} =="
  if [[ "${have_perf}" == 1 ]]; then
    perf stat -e "${events}" -- "$@"
  else
    local start end
    start=$(date +%s%3N)
    "$@"
    end=$(date +%s%3N)
    echo "wall-clock: $((end - start)) ms (perf unavailable)"
  fi
}

run_profiled "simcore microbenchmarks (${filter})" \
  "${gbench}" --benchmark_filter="${filter}"

nodebench="${build_dir}/src/cli/nodebench"
if [[ -x "${nodebench}" ]]; then
  for table in 4 5 7; do
    run_profiled "nodebench table ${table} --runs 100" \
      "${nodebench}" table "${table}" --runs 100
  done
else
  echo "note: skipping the table runs (${nodebench} not built)" >&2
fi
