#!/usr/bin/env bash
# Fast "did I break the paper?" signal: run the two labelled ctest
# groups reviewers care about most, against an already-built tree.
#
#   tools/run_smoke_suites.sh [build-dir]   (default: build)
#
#  - conformance: Tables 1-7 headline numbers transcribed inline with
#    per-cell tolerances (tests/conformance/paper_values_test.cpp).
#  - faults: fault-plan parsing/application, retransmit + watchdog
#    behaviour, n/a-cell degradation, and the CLI fault demos.
#  - campaign: crash-safe journal format, torn-write recovery,
#    kill-and-resume byte-identity (incl. the crash-injection run against
#    the real binary, tools/run_crash_suite.sh).
#  - shard: distributed sharded campaigns (tests/shard/): the
#    deterministic partition + manifest layer, the merged-bytes identity
#    matrix across shard counts x --jobs x fault plans, the merge
#    refusal contract, the CLI driver/merge chain, and the worker
#    kill-resume-merge run against the real binary
#    (tools/run_shard_demo.sh).
#  - fuzz: deterministic corpus + seeded-mutation replay of the
#    fault-plan JSON, journal, results-store, and shard-merge decoders
#    (tests/fuzz/).
#  - stats: the statistics engine + results store + regression gate
#    (unit suites, the CLI gate chain, and the two-store compare demo
#    against the real binary, tools/run_compare_demo.sh).
#  - supervise: the fault-tolerant campaign supervisor (tests/supervise/
#    + the CLI supervise chain in src/cli): deterministic backoff
#    seeding, the lease state machine, the supervisor journal's
#    torn-tail recovery, the heartbeat contract, degrade-to-partial
#    merges with gap manifests, and the end-to-end chaos proof that
#    SIGKILLs workers and the supervisor itself
#    (tools/run_chaos_suite.sh).
#  - serve: the measurement daemon (request decoding, admission queue
#    back-pressure/quotas, watchdog cancellation, drain + --resume
#    byte-identity over a real unix socket, and the daemon SIGKILL
#    section of the crash suite), plus the tsan-labelled concurrency
#    binary, which carries the admission-queue stress test — under a
#    -DNODEBENCH_SANITIZE=thread configure those queue/quota paths run
#    race-checked.
#  - memlab: the memory-hierarchy lab (tests/memlab/): grid shapes, the
#    pointer-chase analytic truth against the cache ladder, the sweep's
#    knee property, --jobs byte-identity, and the journal + store +
#    shard -> merge composition for the sweep/chase grids; then the
#    memlab microbenchmarks dumped to <build>/BENCH_memlab.json.
#  - trace: the trace layer (tests/trace/): scope and sink unit tests,
#    recorded-trace invariants, the --jobs byte-identity of the exports
#    (TraceDeterminism) and the golden traced output of Tables 4-6
#    (TraceGolden, against tests/trace/golden/).
#  - simcore: scheduler-mode and closed-form fast-path determinism
#    cross-checks (tests/simcore/), then the simulation-core
#    microbenchmarks dumped to <build>/BENCH_simcore.json, then a gate
#    self-check proving a results store recorded with every fast path
#    disabled (NODEBENCH_VT_MODE=threads NODEBENCH_SIMCORE_FASTPATH=0)
#    gates PASS against a default-mode recording.
#
# Exits non-zero if any suite fails. See CONTRIBUTING.md.
set -euo pipefail

build_dir="${1:-build}"

if [[ ! -f "${build_dir}/CTestTestfile.cmake" ]]; then
  echo "error: '${build_dir}' is not a configured build tree" >&2
  echo "hint: cmake -B ${build_dir} -G Ninja && cmake --build ${build_dir} -j" >&2
  exit 2
fi

echo "== conformance suite (paper headline numbers) =="
ctest --test-dir "${build_dir}" -L conformance --output-on-failure

echo
echo "== faults suite (resilience harness) =="
ctest --test-dir "${build_dir}" -L faults --output-on-failure

echo
echo "== campaign suite (crash-safe journal + resume) =="
ctest --test-dir "${build_dir}" -L campaign --output-on-failure

echo
echo "== shard suite (distributed campaigns: partition, merge, identity) =="
ctest --test-dir "${build_dir}" -L shard --output-on-failure

echo
echo "== fuzz smoke suite (input-boundary decoders) =="
ctest --test-dir "${build_dir}" -L fuzz --output-on-failure

echo
echo "== stats suite (results store + regression gate) =="
ctest --test-dir "${build_dir}" -L stats --output-on-failure

echo
echo "== supervise suite (lease supervisor: heartbeats, retry, partial merge) =="
ctest --test-dir "${build_dir}" -L supervise --output-on-failure

echo
echo "== serve suite (daemon: back-pressure, watchdog, drain, resume) =="
ctest --test-dir "${build_dir}" -L serve --output-on-failure

echo
echo "== serve concurrency surface (tsan label; race-checked under =="
echo "==   -DNODEBENCH_SANITIZE=thread configures)                 =="
ctest --test-dir "${build_dir}" -L tsan --output-on-failure

echo
echo "== memlab suite (cache ladder: sweep knees, chase truth, merge identity) =="
ctest --test-dir "${build_dir}" -L memlab --output-on-failure

memlab_gbench="${build_dir}/bench/bench_memlab_gbench"
if [[ -x "${memlab_gbench}" ]]; then
  echo
  echo "== memlab microbenchmarks -> ${build_dir}/BENCH_memlab.json =="
  "${memlab_gbench}" \
    --benchmark_filter='ChaseTruth|MeasureChasePoint|MeasureSweepPoint|SweepGrid' \
    --benchmark_out="${build_dir}/BENCH_memlab.json" \
    --benchmark_out_format=json
else
  echo "note: skipping memlab microbenchmarks (${memlab_gbench} not built)" >&2
fi

echo
echo "== trace suite (trace layer: determinism + golden traced output) =="
ctest --test-dir "${build_dir}" -L trace --output-on-failure

echo
echo "== simcore suite (scheduler modes + fast-path determinism) =="
ctest --test-dir "${build_dir}" -L simcore --output-on-failure

gbench="${build_dir}/bench/bench_simcore_gbench"
if [[ -x "${gbench}" ]]; then
  echo
  echo "== simcore microbenchmarks -> ${build_dir}/BENCH_simcore.json =="
  "${gbench}" \
    --benchmark_filter='EventQueue|SwitchMode|SimulatedPingPong|LatencyTruth|InterNodeMeasure|OsuMeasureTruth' \
    --benchmark_out="${build_dir}/BENCH_simcore.json" \
    --benchmark_out_format=json
else
  echo "note: skipping simcore microbenchmarks (${gbench} not built)" >&2
fi

nodebench="${build_dir}/src/cli/nodebench"
if [[ -x "${nodebench}" ]]; then
  echo
  echo "== fast-path gate self-check (slow-mode baseline vs default) =="
  workdir="$(mktemp -d "${TMPDIR:-/tmp}/nodebench_simcore_gate.XXXXXX")"
  trap 'rm -rf "${workdir}"' EXIT
  NODEBENCH_VT_MODE=threads NODEBENCH_SIMCORE_FASTPATH=0 \
    "${nodebench}" table 5 --runs 8 --jobs 1 \
    --store "${workdir}/slow.store" > /dev/null
  "${nodebench}" table 5 --runs 8 --jobs 1 \
    --store "${workdir}/fast.store" > /dev/null
  "${nodebench}" gate "${workdir}/slow.store" "${workdir}/fast.store"
else
  echo "note: skipping fast-path gate self-check (${nodebench} not built)" >&2
fi
