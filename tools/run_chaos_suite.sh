#!/usr/bin/env bash
# Chaos integration suite for `nodebench supervise`: kill random workers
# and the supervisor itself (SIGKILL — no cleanup handlers), resume, and
# assert the final merged artifacts are byte-identical to an
# uninterrupted single-process --jobs 1 run. Then the degradation
# contract: a shard whose every attempt fails is quarantined, the run
# exits with the distinct partial-campaign code 44, and the gap manifest
# enumerates exactly the missing shard and its cells.
#
#   tools/run_chaos_suite.sh [build-dir] [table] [runs]
#     build-dir  configured build tree containing the nodebench binary
#                (default: build)
#     table      table selector passed to the workers (default: 4)
#     runs       --runs per cell (default: 3; kept small — the property
#                under test is fault tolerance, not statistics)
#
# Sections (all run; each ends in a cmp or an exit-code assertion):
#  - healthy:    all workers succeed; merged journal + store cmp-equal
#                to the --jobs 1 reference.
#  - workers:    random worker SIGKILLs mid-campaign; the supervisor
#                reassigns with backoff until done; cmp as above.
#  - supervisor: SIGKILL the supervisor mid-campaign (workers orphaned),
#                rerun with --resume (stale workers killed, leases
#                re-adopted without burning attempts), SIGKILL that
#                supervisor too once it relaunched them, and --resume
#                again; cmp as above.
#  - poison:     one shard fails every attempt; exit code must be
#                exactly 44, the merge must degrade to partial, and the
#                gap manifest must name the shard, its attempt count,
#                and every one of its cells.
set -euo pipefail

build_dir="${1:-build}"
table="${2:-4}"
runs="${3:-3}"
shards=3

nodebench="${build_dir}/src/cli/nodebench"
if [[ ! -x "${nodebench}" ]]; then
  echo "error: '${nodebench}' not found; build the tree first" >&2
  echo "hint: cmake -B ${build_dir} && cmake --build ${build_dir} -j" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/nodebench_chaos_suite.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT

echo "== reference: uninterrupted --jobs 1 run =="
ref_journal="${workdir}/ref.journal"
ref_store="${workdir}/ref.store"
"${nodebench}" table "${table}" --runs "${runs}" --jobs 1 \
  --journal "${ref_journal}" --store "${ref_store}" > /dev/null

assert_identical() {
  # assert_identical LABEL MERGED_JOURNAL MERGED_STORE
  local label="$1" journal="$2" store="$3"
  if ! cmp -s "${journal}" "${ref_journal}"; then
    echo "error: ${label}: merged journal differs from the --jobs 1 run" >&2
    exit 1
  fi
  if ! cmp -s "${store}" "${ref_store}"; then
    echo "error: ${label}: merged store differs from the --jobs 1 run" >&2
    exit 1
  fi
  echo "   ${label}: merged journal and store byte-identical to reference"
}

echo
echo "== healthy: all workers succeed =="
base="${workdir}/healthy"
"${nodebench}" supervise "${table}" --shards "${shards}" --runs "${runs}" \
  --journal "${base}.journal" --store "${base}.store" \
  --merge-out "${base}.merged.journal" \
  --merge-store-out "${base}.merged.store" \
  > "${workdir}/healthy.log" 2>&1
assert_identical "healthy" "${base}.merged.journal" "${base}.merged.store"

echo
echo "== workers: random worker SIGKILLs mid-campaign =="
base="${workdir}/chaos"
# --test-cell-delay-ms keeps every worker alive long enough for the
# kills to land mid-cell; generous --max-attempts absorbs however many
# kills strike one shard, and a tiny backoff keeps the suite fast.
"${nodebench}" supervise "${table}" --shards "${shards}" --runs "${runs}" \
  --journal "${base}.journal" --store "${base}.store" \
  --merge-out "${base}.merged.journal" \
  --merge-store-out "${base}.merged.store" \
  --max-attempts 8 --backoff-base-ms 10 --backoff-cap-ms 50 \
  --test-cell-delay-ms 150 \
  > "${workdir}/chaos.log" 2>&1 &
supervisor=$!
kills=0
for _ in $(seq 1 12); do
  sleep 0.25
  if ! kill -0 "${supervisor}" 2>/dev/null; then
    break  # campaign already finished
  fi
  # Workers (and only workers) carry the shard journal path in argv.
  mapfile -t workers < <(pgrep -f "${base}.journal.shard" || true)
  if (( ${#workers[@]} > 0 )); then
    victim="${workers[RANDOM % ${#workers[@]}]}"
    if kill -9 "${victim}" 2>/dev/null; then
      kills=$((kills + 1))
    fi
  fi
done
rc=0
wait "${supervisor}" || rc=$?
if (( rc != 0 )); then
  echo "error: supervisor exited ${rc} despite retries (${kills} kills)" >&2
  tail -10 "${workdir}/chaos.log" >&2
  exit 1
fi
echo "   survived ${kills} worker SIGKILL(s)"
assert_identical "worker chaos" "${base}.merged.journal" \
  "${base}.merged.store"

echo
echo "== supervisor: SIGKILL the coordinator, then --resume =="
base="${workdir}/svkill"
"${nodebench}" supervise "${table}" --shards "${shards}" --runs "${runs}" \
  --journal "${base}.journal" --store "${base}.store" \
  --merge-out "${base}.merged.journal" \
  --merge-store-out "${base}.merged.store" \
  --test-cell-delay-ms 400 \
  > "${workdir}/svkill1.log" 2>&1 &
supervisor=$!
sleep 0.6
if kill -9 "${supervisor}" 2>/dev/null; then
  wait "${supervisor}" 2>/dev/null || true
  echo "   supervisor killed mid-campaign; workers orphaned"
else
  # The campaign finished before the kill: still a valid resume below
  # (it re-adopts a fully-done journal and just merges).
  wait "${supervisor}" 2>/dev/null || true
  echo "   campaign finished before the kill; resuming the done state"
fi
# Orphaned workers may still be running; --resume must kill any stale
# ones (cmdline-guarded) and re-adopt their leases without burning
# attempts. Merge outputs may exist if the kill landed post-merge.
# That resumed supervisor relaunches the in-flight attempts under their
# old attempt numbers; it is killed too, so the last --resume replays
# each such attempt started twice.
rm -f "${base}.merged.journal" "${base}.merged.store"
"${nodebench}" supervise "${table}" --shards "${shards}" --runs "${runs}" \
  --journal "${base}.journal" --store "${base}.store" \
  --merge-out "${base}.merged.journal" \
  --merge-store-out "${base}.merged.store" \
  --test-cell-delay-ms 400 --resume \
  > "${workdir}/svkill2.log" 2>&1 &
supervisor=$!
# A launch is logged after its AttemptStarted event is committed.
for _ in $(seq 1 200); do
  if grep -q " attempt [0-9]* (pid " "${workdir}/svkill2.log" ||
     ! kill -0 "${supervisor}" 2>/dev/null; then
    break
  fi
  sleep 0.02
done
if kill -9 "${supervisor}" 2>/dev/null; then
  wait "${supervisor}" 2>/dev/null || true
  if grep -q " attempt [0-9]* (pid " "${workdir}/svkill2.log"; then
    echo "   resumed supervisor killed after relaunching a worker"
  else
    echo "   resumed supervisor killed before relaunching a worker"
  fi
else
  wait "${supervisor}" 2>/dev/null || true
  echo "   resumed campaign finished before the second kill"
fi
if ! grep -q "resuming campaign" "${workdir}/svkill2.log"; then
  echo "error: --resume did not report re-adopting the journal" >&2
  tail -10 "${workdir}/svkill2.log" >&2
  exit 1
fi
rm -f "${base}.merged.journal" "${base}.merged.store"
"${nodebench}" supervise "${table}" --shards "${shards}" --runs "${runs}" \
  --journal "${base}.journal" --store "${base}.store" \
  --merge-out "${base}.merged.journal" \
  --merge-store-out "${base}.merged.store" \
  --resume \
  > "${workdir}/svkill3.log" 2>&1 || {
  echo "error: the third supervisor could not resume" >&2
  tail -10 "${workdir}/svkill3.log" >&2
  exit 1
}
assert_identical "supervisor kill + resume" "${base}.merged.journal" \
  "${base}.merged.store"

echo
echo "== poison: one shard fails every attempt =="
base="${workdir}/poison"
rc=0
"${nodebench}" supervise "${table}" --shards "${shards}" --runs "${runs}" \
  --journal "${base}.journal" --store "${base}.store" \
  --merge-out "${base}.merged.journal" \
  --merge-store-out "${base}.merged.store" \
  --gap-out "${base}.gaps.json" \
  --max-attempts 2 --backoff-base-ms 10 --backoff-cap-ms 20 \
  --test-poison-shard 1 \
  > "${workdir}/poison.log" 2>&1 || rc=$?
if (( rc != 44 )); then
  echo "error: poisoned campaign exited ${rc} (wanted the distinct" \
       "partial-campaign code 44)" >&2
  tail -10 "${workdir}/poison.log" >&2
  exit 1
fi
if [[ ! -f "${base}.merged.journal" ]]; then
  echo "error: partial merge emitted no journal" >&2
  exit 1
fi
if cmp -s "${base}.merged.journal" "${ref_journal}"; then
  echo "error: partial merge is byte-equal to the full reference" >&2
  exit 1
fi
gaps="${base}.gaps.json"
if [[ ! -f "${gaps}" ]]; then
  echo "error: partial merge emitted no gap manifest" >&2
  exit 1
fi
for needle in \
    '"schema": "nodebench-gap-manifest-v1"' \
    '"present_shards": [0, 2]' \
    '"shard": 1, "attempts": 2' \
    ; do
  if ! grep -qF "${needle}" "${gaps}"; then
    echo "error: gap manifest is missing ${needle}" >&2
    cat "${gaps}" >&2
    exit 1
  fi
done
# Exactly the poisoned shard's cells are missing: present + missing must
# partition the grid, and every missing cell must blame shard 1.
total="$(grep -o '"total_cells": [0-9]*' "${gaps}" | grep -o '[0-9]*')"
present="$(grep -o '"present_cells": [0-9]*' "${gaps}" | grep -o '[0-9]*')"
missing="$(grep -c '"machine": ' "${gaps}")" || true
if (( present + missing != total )); then
  echo "error: gap manifest cells do not partition the grid" \
       "(${present} present + ${missing} missing != ${total})" >&2
  cat "${gaps}" >&2
  exit 1
fi
if (( missing == 0 )); then
  echo "error: gap manifest enumerates no missing cells" >&2
  exit 1
fi
if grep '"machine": ' "${gaps}" | grep -qv '"shard": 1'; then
  echo "error: a missing cell blames a shard other than the poisoned one" >&2
  cat "${gaps}" >&2
  exit 1
fi
echo "   exit 44, partial merge, gap manifest enumerates shard 1's" \
     "${missing} cell(s)"

echo
echo "chaos suite passed"
