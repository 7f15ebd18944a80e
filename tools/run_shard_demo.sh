#!/usr/bin/env bash
# Sharded-campaign demo and integration check against the real binary:
#
#   tools/run_shard_demo.sh [build-dir] [table] [shards] [runs]
#     build-dir  configured build tree (default: build)
#     table      table selector for `nodebench shard` (default: 4)
#     shards     worker-process count (default: 3)
#     runs       --runs per cell (default: 2)
#
# Exercises the full distributed-campaign loop:
#  1. `nodebench shard` forks N workers, each measuring its deterministic
#     slice into shard-suffixed journal + store files, then merges
#     in-process (--merge-out / --merge-store-out).
#  2. The merged journal and store must be byte-identical to an
#     uninterrupted single-process `--jobs 1` run of the same campaign.
#  3. `nodebench merge` re-merges the same worker files standalone and
#     must produce the same bytes again.
#  4. Refusal paths: an incomplete shard set and an existing output file
#     are both rejected loudly, naming the problem.
#  5. A failed worker: `shard` gives each shard one attempt, so a shard
#     whose journal is garbage becomes a gap — exit 44, a partial merge
#     of the other shards and a gap manifest naming it — and a --resume
#     over a good journal finishes the campaign byte-identically.
set -euo pipefail

build_dir="${1:-build}"
table="${2:-4}"
shards="${3:-3}"
runs="${4:-2}"

nodebench="${build_dir}/src/cli/nodebench"
if [[ ! -x "${nodebench}" ]]; then
  echo "error: '${nodebench}' not found; build the tree first" >&2
  echo "hint: cmake -B ${build_dir} && cmake --build ${build_dir} -j" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/nodebench_shard_demo.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT

echo "== reference: single-process 'table ${table}' at --jobs 1 =="
"${nodebench}" table "${table}" --runs "${runs}" --jobs 1 \
  --journal "${workdir}/ref.journal" --store "${workdir}/ref.store" \
  > /dev/null

echo
echo "== nodebench shard: ${shards} workers, merged in-process =="
"${nodebench}" shard "${table}" --shards "${shards}" --runs "${runs}" \
  --jobs 2 \
  --journal "${workdir}/c.journal" --store "${workdir}/c.store" \
  --merge-out "${workdir}/merged.journal" \
  --merge-store-out "${workdir}/merged.store"

if ! cmp -s "${workdir}/merged.journal" "${workdir}/ref.journal"; then
  echo "error: merged journal differs from the single-process run" >&2
  exit 1
fi
if ! cmp -s "${workdir}/merged.store" "${workdir}/ref.store"; then
  echo "error: merged store differs from the single-process run" >&2
  exit 1
fi
echo "   merged journal and store are byte-identical to the reference"

echo
echo "== nodebench merge: standalone re-merge of the worker files =="
journals=()
stores=()
for (( i = 0; i < shards; i++ )); do
  journals+=("${workdir}/c.journal.shard${i}of${shards}")
  stores+=(--stores "${workdir}/c.store.shard${i}of${shards}")
done
"${nodebench}" merge "${journals[@]}" \
  --out "${workdir}/remerged.journal" \
  "${stores[@]}" --store-out "${workdir}/remerged.store"
cmp "${workdir}/remerged.journal" "${workdir}/ref.journal"
cmp "${workdir}/remerged.store" "${workdir}/ref.store"
echo "   standalone merge reproduces the same bytes"

echo
echo "== refusal paths =="
rc=0
"${nodebench}" merge "${journals[0]}" \
  --out "${workdir}/incomplete.journal" \
  > /dev/null 2> "${workdir}/refusal.log" || rc=$?
if (( rc == 0 )); then
  echo "error: merge accepted an incomplete shard set" >&2
  exit 1
fi
if ! grep -q "is missing from the merge set" "${workdir}/refusal.log"; then
  echo "error: refusal does not explain the missing shard" >&2
  cat "${workdir}/refusal.log" >&2
  exit 1
fi
rc=0
"${nodebench}" merge "${journals[@]}" \
  --out "${workdir}/merged.journal" \
  > /dev/null 2>> "${workdir}/refusal.log" || rc=$?
if (( rc == 0 )); then
  echo "error: merge overwrote an existing output" >&2
  exit 1
fi
echo "   incomplete set and existing output both refused"

echo
echo "== a failed worker: its slice becomes a gap, --resume finishes it =="
if (( shards < 2 )); then
  echo "   skipped: a gap needs another shard to merge"
else
  for (( i = 0; i < shards; i++ )); do
    cp "${workdir}/c.journal.shard${i}of${shards}" \
       "${workdir}/g.journal.shard${i}of${shards}"
    cp "${workdir}/c.store.shard${i}of${shards}" \
       "${workdir}/g.store.shard${i}of${shards}"
  done
  bad=$(( shards - 1 ))
  bad_journal="${workdir}/g.journal.shard${bad}of${shards}"
  echo "not a journal" > "${bad_journal}"
  resume_g() {
    "${nodebench}" shard "${table}" --shards "${shards}" --runs "${runs}" \
      --jobs 2 --resume \
      --journal "${workdir}/g.journal" --store "${workdir}/g.store" \
      --merge-out "${workdir}/g.merged.journal" \
      --merge-store-out "${workdir}/g.merged.store" \
      > /dev/null 2>> "${workdir}/gap.log"
  }
  rc=0
  resume_g || rc=$?
  if (( rc != 44 )); then
    echo "error: a failed worker made shard exit ${rc} (wanted 44)" >&2
    tail -5 "${workdir}/gap.log" >&2
    exit 1
  fi
  gaps="${workdir}/g.merged.journal.gaps.json"
  if ! grep -qF "{\"shard\": ${bad}, \"attempts\": 1" "${gaps}"; then
    echo "error: the gap manifest does not name shard ${bad}" >&2
    cat "${gaps}" >&2
    exit 1
  fi
  # The partial merge is the other shards' cells: a standalone partial
  # merge of their journals writes the same bytes.
  rc=0
  "${nodebench}" merge "${journals[@]:0:${bad}}" --allow-partial \
    --out "${workdir}/partial.journal" > /dev/null 2>&1 || rc=$?
  if (( rc != 44 )) ||
     ! cmp -s "${workdir}/g.merged.journal" "${workdir}/partial.journal"; then
    echo "error: the partial merge is not the other shards' cells" >&2
    exit 1
  fi
  echo "   exit 44; gap manifest names shard ${bad}; the other shards merged"
  cp "${journals[${bad}]}" "${bad_journal}"
  resume_g
  cmp "${workdir}/g.merged.journal" "${workdir}/ref.journal"
  cmp "${workdir}/g.merged.store" "${workdir}/ref.store"
  if [[ -e "${gaps}" ]]; then
    echo "error: the complete merge left the gap manifest ${gaps}" >&2
    exit 1
  fi
  echo "   --resume over the restored journal exits 0, bytes identical," \
       "gap manifest removed"
fi

echo
echo "shard demo passed"
