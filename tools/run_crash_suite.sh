#!/usr/bin/env bash
# Crash-injection integration suite for the campaign journal and results
# store: repeatedly kill the real nodebench binary mid-campaign and resume
# it, then assert the final table output (and, at --jobs 1, the store) is
# byte-identical to an uninterrupted run.
#
#   tools/run_crash_suite.sh [--section NAME]... [build-dir] [table] [runs]
#     --section  run only the named section(s); repeatable. Names:
#                  crash    deterministic --crash-after-cell loop,
#                           journal and store
#                  sigkill  SIGKILL mid-campaign, then resume
#                  sigterm  graceful interrupt (exit 43), then resume
#                  serve    SIGTERM right after start (x50), then
#                           daemon SIGKILL + --resume recovery
#                  shard    sharded worker SIGKILL, resume, merge;
#                           shard driver SIGKILL and SIGTERM, resume
#                  memlab   sweep/chase SIGKILL mid-grid, then resume
#                Default (no flag): every section. The baseline run is
#                shared by crash/sigkill/sigterm and executes whenever
#                any of those is selected.
#     build-dir  configured build tree containing the nodebench binary
#                (default: build)
#     table      table selector passed to `nodebench table` (default: all,
#                which covers every registry machine)
#     runs       --runs per cell (default: 2; kept small — the property
#                under test is durability, not statistics)
#
# Two kill mechanisms are exercised at --jobs 1 and --jobs 8:
#  - the deterministic --crash-after-cell hook (the Nth cell's record is
#    written, then _Exit(42) before any commit fsyncs it): a kill between
#    a write and its fsync, landing exactly on an append boundary;
#  - one SIGKILL at a random point, which may tear a record mid-write and
#    must be recovered by torn-tail truncation on resume.
# Then the graceful-interrupt contract: SIGTERM to a journaled run must
# finish the in-flight cell, commit, and exit 43, with --resume completing
# the campaign byte-identically.
# Finally the daemon: a SIGTERM that lands as soon as its socket exists
# must drain it (exit 0), 50 times over; then `nodebench serve` is
# SIGKILLed mid-request and restarted with --resume, and the recovered
# request's persisted result must be byte-identical to the same request
# measured in a fresh state dir.
set -euo pipefail

sections=()
positional=()
while (( $# > 0 )); do
  case "$1" in
    --section)
      [[ $# -ge 2 ]] || { echo "error: --section needs a name" >&2; exit 2; }
      sections+=("$2")
      shift 2
      ;;
    --section=*)
      sections+=("${1#--section=}")
      shift
      ;;
    --*)
      echo "error: unknown flag '$1' (only --section NAME)" >&2
      exit 2
      ;;
    *)
      positional+=("$1")
      shift
      ;;
  esac
done
for s in "${sections[@]:+${sections[@]}}"; do
  case "${s}" in
    crash|sigkill|sigterm|serve|shard|memlab) ;;
    *)
      echo "error: unknown section '${s}'" \
           "(crash, sigkill, sigterm, serve, shard, memlab)" >&2
      exit 2
      ;;
  esac
done

# want NAME: true when NAME was selected, or when no --section was given.
want() {
  local s
  (( ${#sections[@]} == 0 )) && return 0
  for s in "${sections[@]}"; do
    [[ "${s}" == "$1" ]] && return 0
  done
  return 1
}

build_dir="${positional[0]:-build}"
table="${positional[1]:-all}"
runs="${positional[2]:-2}"

nodebench="${build_dir}/src/cli/nodebench"
if [[ ! -x "${nodebench}" ]]; then
  echo "error: '${nodebench}' not found; build the tree first" >&2
  echo "hint: cmake -B ${build_dir} && cmake --build ${build_dir} -j" >&2
  exit 2
fi

workdir="$(mktemp -d "${TMPDIR:-/tmp}/nodebench_crash_suite.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT

if want crash || want sigkill || want sigterm; then
  echo "== baseline: uninterrupted 'table ${table}' run =="
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
    > "${workdir}/baseline.txt"
fi

if want crash; then
  # The store the --jobs 1 crash loop must reproduce byte for byte (at
  # --jobs 8 the record order follows thread completion).
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 1 \
    --journal "${workdir}/reference.journal" \
    --store "${workdir}/reference.store" > /dev/null
  for jobs in 1 8; do
    echo
    echo "== kill-and-resume at --jobs ${jobs} =="
    journal="${workdir}/campaign_j${jobs}.bin"
    store="${workdir}/campaign_j${jobs}.store"
    rm -f "${journal}" "${store}"

    # Phase 1: deterministic crashes every few appended cells until the
    # campaign completes. Exit 42 is the crash hook; 0 means done.
    iteration=0
    max_iterations=200
    resume_flag=()
    while :; do
      iteration=$((iteration + 1))
      if (( iteration > max_iterations )); then
        echo "error: campaign did not converge in ${max_iterations} crashes" >&2
        exit 1
      fi
      rc=0
      "${nodebench}" table "${table}" --runs "${runs}" --jobs "${jobs}" \
        --journal "${journal}" --store "${store}" "${resume_flag[@]}" \
        --crash-after-cell 5 \
        > "${workdir}/crashed.txt" 2>> "${workdir}/stderr_j${jobs}.log" || rc=$?
      resume_flag=(--resume)
      if (( rc == 0 )); then
        break
      elif (( rc != 42 )); then
        echo "error: unexpected exit code ${rc} (wanted 0 or 42)" >&2
        tail -5 "${workdir}/stderr_j${jobs}.log" >&2
        exit 1
      fi
    done
    echo "   campaign converged after ${iteration} process runs"

    if ! cmp -s "${workdir}/crashed.txt" "${workdir}/baseline.txt"; then
      echo "error: resumed output differs from the uninterrupted run" >&2
      diff "${workdir}/baseline.txt" "${workdir}/crashed.txt" | head -20 >&2
      exit 1
    fi
    echo "   resumed output is byte-identical to the baseline"
    if (( jobs == 1 )); then
      if ! cmp -s "${store}" "${workdir}/reference.store"; then
        echo "error: resumed store differs from the uninterrupted" \
             "--jobs 1 store" >&2
        exit 1
      fi
      echo "   resumed store is byte-identical to the --jobs 1 store"
    fi
  done
fi

if want sigkill; then
  echo
  echo "== SIGKILL mid-campaign, then resume =="
  journal="${workdir}/campaign_kill.bin"
  rm -f "${journal}"
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
    --journal "${journal}" > /dev/null 2>&1 &
  victim=$!
  sleep 0.05
  kill -9 "${victim}" 2>/dev/null || true
  wait "${victim}" 2>/dev/null || true
  if [[ ! -f "${journal}" ]]; then
    # The kill landed before journal creation; nothing to resume.
    "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
      --journal "${journal}" > "${workdir}/killed.txt"
  else
    "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
      --journal "${journal}" --resume > "${workdir}/killed.txt" \
      2>> "${workdir}/stderr_kill.log"
  fi
  if ! cmp -s "${workdir}/killed.txt" "${workdir}/baseline.txt"; then
    echo "error: post-SIGKILL resume differs from the uninterrupted run" >&2
    diff "${workdir}/baseline.txt" "${workdir}/killed.txt" | head -20 >&2
    exit 1
  fi
  echo "   post-SIGKILL resume is byte-identical to the baseline"
fi

if want sigterm; then
  echo
  echo "== SIGTERM mid-campaign: graceful interrupt (exit 43), then resume =="
  journal="${workdir}/campaign_term.bin"
  rm -f "${journal}"
  # --test-cell-delay-ms slows every cell so the signal reliably lands
  # mid-campaign (the simulated campaign otherwise finishes in
  # milliseconds). The delay changes timing only, never output or the
  # journal fingerprint, so the resume below may drop it.
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
    --journal "${journal}" --test-cell-delay-ms 30 > "${workdir}/term.txt" \
    2> "${workdir}/stderr_term.log" &
  victim=$!
  sleep 0.3
  kill -TERM "${victim}" 2>/dev/null || true
  rc=0
  wait "${victim}" || rc=$?
  if (( rc != 43 )); then
    echo "error: SIGTERM produced exit ${rc} (wanted the interrupt code 43)" >&2
    tail -5 "${workdir}/stderr_term.log" >&2
    exit 1
  fi
  if [[ ! -f "${journal}" ]]; then
    echo "error: exit 43 without a journal on disk" >&2
    exit 1
  fi
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
    --journal "${journal}" --resume > "${workdir}/term.txt" \
    2>> "${workdir}/stderr_term.log"
  if ! cmp -s "${workdir}/term.txt" "${workdir}/baseline.txt"; then
    echo "error: post-SIGTERM resume differs from the uninterrupted run" >&2
    diff "${workdir}/baseline.txt" "${workdir}/term.txt" | head -20 >&2
    exit 1
  fi
  echo "   interrupted run exited 43 and resumed byte-identically"
fi

if want serve; then
  echo
  echo "== serve: SIGTERM as soon as the socket exists, 50 times =="
  # The daemon is reachable once its socket is bound; a SIGTERM from then
  # on must drain it. One that beat the drain handlers used to kill it
  # (exit -15) in about 8 of 100 starts.
  race_sock="${workdir}/race.sock"
  for i in $(seq 1 50); do
    rm -rf "${race_sock}" "${workdir}/race_state"
    "${nodebench}" serve --socket "${race_sock}" \
      --state-dir "${workdir}/race_state" > "${workdir}/race.log" 2>&1 &
    daemon=$!
    while [[ ! -S "${race_sock}" ]] && kill -0 "${daemon}" 2>/dev/null; do
      :
    done
    kill -TERM "${daemon}" 2>/dev/null || true
    rc=0
    wait "${daemon}" || rc=$?
    if (( rc != 0 )); then
      echo "error: start ${i}: SIGTERM after bind exited ${rc} (wanted 0)" >&2
      cat "${workdir}/race.log" >&2
      exit 1
    fi
  done
  echo "   50 daemons drained cleanly"

  echo
  echo "== serve: SIGKILL the daemon mid-request, restart --resume =="
  if ! curl --help all 2>/dev/null | grep -q unix-socket; then
    echo "   skipped: curl with --unix-socket support not available"
  else
    sock="${workdir}/nb.sock"
    state="${workdir}/serve_state"
    ref_state="${workdir}/serve_ref_state"
    # debug_cell_delay_ms needs --test-hooks and slows every cell enough
    # that the SIGKILL below reliably lands mid-campaign.
    request='{"tenant":"crashsuite","tables":[4],"runs":2,"machines":["Theta","Eagle"],"debug_cell_delay_ms":200,"wait":false}'

    wait_healthz() {
      local s="$1" i
      for i in $(seq 1 200); do
        if curl -sf --unix-socket "${s}" http://localhost/healthz \
            > /dev/null 2>&1; then
          return 0
        fi
        sleep 0.05
      done
      echo "error: daemon on ${s} never became healthy" >&2
      return 1
    }

    "${nodebench}" serve --socket "${sock}" --state-dir "${state}" \
      --test-hooks > "${workdir}/serve1.log" 2>&1 &
    daemon=$!
    wait_healthz "${sock}"
    curl -sf --unix-socket "${sock}" -X POST -d "${request}" \
      http://localhost/requests > /dev/null
    sleep 0.6
    kill -9 "${daemon}" 2>/dev/null || true
    wait "${daemon}" 2>/dev/null || true
    if [[ -f "${state}/req-000001.result.json" ]]; then
      echo "error: request finished before the SIGKILL; raise the delay" >&2
      exit 1
    fi
    if [[ ! -f "${state}/req-000001.spec.json" ]]; then
      echo "error: no persisted spec for the in-flight request" >&2
      exit 1
    fi

    "${nodebench}" serve --socket "${sock}" --state-dir "${state}" \
      --test-hooks --resume > "${workdir}/serve2.log" 2>&1 &
    daemon=$!
    wait_healthz "${sock}"
    for _ in $(seq 1 600); do
      if [[ -f "${state}/req-000001.result.json" ]]; then
        break
      fi
      sleep 0.05
    done
    if [[ ! -f "${state}/req-000001.result.json" ]]; then
      echo "error: resumed daemon never finished the recovered request" >&2
      tail -5 "${workdir}/serve2.log" >&2
      exit 1
    fi
    kill -TERM "${daemon}" 2>/dev/null || true
    rc=0
    wait "${daemon}" || rc=$?
    if (( rc != 0 )); then
      echo "error: graceful drain exited ${rc} (wanted 0)" >&2
      exit 1
    fi

    # Reference: the identical request against a fresh daemon and state
    # dir, never interrupted. Same first request => same id, so the two
    # result documents must match byte-for-byte.
    "${nodebench}" serve --socket "${sock}" --state-dir "${ref_state}" \
      --test-hooks > "${workdir}/serve_ref.log" 2>&1 &
    daemon=$!
    wait_healthz "${sock}"
    curl -sf --unix-socket "${sock}" -X POST \
      -d "${request/\"wait\":false/\"wait\":true}" \
      http://localhost/requests > /dev/null
    kill -TERM "${daemon}" 2>/dev/null || true
    wait "${daemon}" 2>/dev/null || true
    if ! cmp -s "${state}/req-000001.result.json" \
         "${ref_state}/req-000001.result.json"; then
      echo "error: recovered result differs from the uninterrupted run" >&2
      diff "${ref_state}/req-000001.result.json" \
           "${state}/req-000001.result.json" | head -5 >&2
      exit 1
    fi
    echo "   recovered daemon result is byte-identical to the fresh run"
  fi
fi

if want shard; then
  echo
  echo "== sharded campaign: SIGKILL one worker, resume it, merge =="
  # Three hand-launched shard workers (the cross-host shape — no driver
  # process), the middle one slowed and SIGKILLed mid-cell. Resuming just
  # that shard and merging must reproduce the single-process --jobs 1
  # journal and store byte-for-byte: the shard layer's durability story is
  # the journal's, per worker.
  shard_ref_journal="${workdir}/shard_ref.journal"
  shard_ref_store="${workdir}/shard_ref.store"
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 1 \
    --journal "${shard_ref_journal}" --store "${shard_ref_store}" \
    > /dev/null

  shard_base="${workdir}/shard.journal"
  shard_store_base="${workdir}/shard.store"
  for i in 0 2; do
    "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
      --shard "${i}/3" \
      --journal "${shard_base}.shard${i}of3" \
      --store "${shard_store_base}.shard${i}of3" > /dev/null &
  done
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
    --shard 1/3 \
    --journal "${shard_base}.shard1of3" \
    --store "${shard_store_base}.shard1of3" \
    --test-cell-delay-ms 200 > /dev/null 2>&1 &
  victim=$!
  sleep 0.4
  kill -9 "${victim}" 2>/dev/null || true
  wait 2>/dev/null || true

  resume_flag=(--resume)
  if [[ ! -f "${shard_base}.shard1of3" ]]; then
    # The kill landed before journal creation; start the shard fresh.
    resume_flag=()
  fi
  "${nodebench}" table "${table}" --runs "${runs}" --jobs 2 \
    --shard 1/3 \
    --journal "${shard_base}.shard1of3" \
    --store "${shard_store_base}.shard1of3" "${resume_flag[@]}" > /dev/null \
    2>> "${workdir}/stderr_shard.log"

  # A merge of the incomplete set must be refused, naming the shard.
  rc=0
  "${nodebench}" merge \
    "${shard_base}.shard0of3" "${shard_base}.shard1of3" \
    --out "${workdir}/shard_incomplete.journal" \
    > /dev/null 2> "${workdir}/shard_refusal.log" || rc=$?
  if (( rc == 0 )); then
    echo "error: merge accepted an incomplete shard set" >&2
    exit 1
  fi
  if ! grep -q "shard 2/3" "${workdir}/shard_refusal.log"; then
    echo "error: merge refusal does not name the missing shard" >&2
    cat "${workdir}/shard_refusal.log" >&2
    exit 1
  fi

  "${nodebench}" merge \
    "${shard_base}.shard0of3" "${shard_base}.shard1of3" \
    "${shard_base}.shard2of3" \
    --out "${workdir}/shard_merged.journal" \
    --stores "${shard_store_base}.shard0of3" \
    --stores "${shard_store_base}.shard1of3" \
    --stores "${shard_store_base}.shard2of3" \
    --store-out "${workdir}/shard_merged.store" \
    >> "${workdir}/stderr_shard.log" 2>&1

  if ! cmp -s "${workdir}/shard_merged.journal" "${shard_ref_journal}"; then
    echo "error: merged shard journal differs from the --jobs 1 run" >&2
    exit 1
  fi
  if ! cmp -s "${workdir}/shard_merged.store" "${shard_ref_store}"; then
    echo "error: merged shard store differs from the --jobs 1 run" >&2
    exit 1
  fi
  echo "   killed worker resumed; merged journal and store byte-identical"

  echo
  echo "== shard driver: SIGKILL it, then --resume kills its orphans =="
  # A SIGKILLed driver leaves its workers running. The --resume must kill
  # them before it launches replacements: an orphan that keeps appending
  # to the journal its replacement resumed records cells twice, and the
  # shard set no longer merges.
  drv="${workdir}/drv.journal"
  "${nodebench}" shard "${table}" --shards 2 --runs "${runs}" --jobs 1 \
    --journal "${drv}" --test-cell-delay-ms 150 \
    > /dev/null 2>> "${workdir}/stderr_shard.log" &
  driver=$!
  sleep 0.5
  kill -9 "${driver}" 2>/dev/null || true
  wait "${driver}" 2>/dev/null || true
  "${nodebench}" shard "${table}" --shards 2 --runs "${runs}" --jobs 1 \
    --journal "${drv}" --resume --merge-out "${workdir}/drv.merged" \
    > /dev/null 2>> "${workdir}/stderr_shard.log"
  # Whatever still runs for these journals is an orphan the resume missed:
  # let it finish, so the merge below reads everything it appended.
  for _ in $(seq 1 200); do
    pgrep -f "${drv}.shard" > /dev/null || break
    sleep 0.05
  done
  "${nodebench}" merge "${drv}.shard0of2" "${drv}.shard1of2" \
    --out "${workdir}/drv.remerged" >> "${workdir}/stderr_shard.log" 2>&1 || {
    echo "error: the resumed shard journals no longer merge" >&2
    tail -3 "${workdir}/stderr_shard.log" >&2
    exit 1
  }
  if ! cmp -s "${workdir}/drv.remerged" "${shard_ref_journal}"; then
    echo "error: the resumed shard journals differ from the --jobs 1 run" >&2
    exit 1
  fi
  echo "   orphans killed; a later standalone merge is byte-identical"

  echo
  echo "== shard driver: SIGTERM drains its workers (exit 43), then resume =="
  drv="${workdir}/drv_term.journal"
  "${nodebench}" shard "${table}" --shards 2 --runs "${runs}" --jobs 1 \
    --journal "${drv}" --test-cell-delay-ms 150 \
    > /dev/null 2>> "${workdir}/stderr_shard.log" &
  driver=$!
  sleep 0.5
  kill -TERM "${driver}" 2>/dev/null || true
  rc=0
  wait "${driver}" || rc=$?
  if (( rc != 43 )); then
    echo "error: SIGTERM to the shard driver produced exit ${rc}" \
         "(wanted the interrupt code 43)" >&2
    tail -5 "${workdir}/stderr_shard.log" >&2
    exit 1
  fi
  "${nodebench}" shard "${table}" --shards 2 --runs "${runs}" --jobs 1 \
    --journal "${drv}" --resume --merge-out "${workdir}/drv_term.merged" \
    > /dev/null 2>> "${workdir}/stderr_shard.log"
  if ! cmp -s "${workdir}/drv_term.merged" "${shard_ref_journal}"; then
    echo "error: the drained and resumed campaign differs from the" \
         "--jobs 1 run" >&2
    exit 1
  fi
  echo "   interrupted driver exited 43 and resumed byte-identically"
fi

if want memlab; then
  # The memlab families ride the same journal machinery as the tables;
  # this section proves it end-to-end: SIGKILL each family mid-grid (the
  # kill may tear a record mid-write), resume, and require the rendered
  # output byte-identical to an uninterrupted run of the same family.
  for family in sweep chase; do
    echo
    echo "== memlab ${family}: SIGKILL mid-grid, then resume =="
    "${nodebench}" "${family}" --runs "${runs}" --jobs 2 \
      > "${workdir}/${family}_baseline.txt"

    journal="${workdir}/${family}_kill.bin"
    rm -f "${journal}"
    "${nodebench}" "${family}" --runs "${runs}" --jobs 2 \
      --journal "${journal}" --test-cell-delay-ms 5 > /dev/null 2>&1 &
    victim=$!
    sleep 0.3
    kill -9 "${victim}" 2>/dev/null || true
    wait "${victim}" 2>/dev/null || true

    resume_flag=(--resume)
    if [[ ! -f "${journal}" ]]; then
      # The kill landed before journal creation; nothing to resume.
      resume_flag=()
    fi
    "${nodebench}" "${family}" --runs "${runs}" --jobs 2 \
      --journal "${journal}" "${resume_flag[@]}" \
      > "${workdir}/${family}_killed.txt" \
      2>> "${workdir}/stderr_${family}.log"
    if ! cmp -s "${workdir}/${family}_killed.txt" \
         "${workdir}/${family}_baseline.txt"; then
      echo "error: resumed ${family} differs from the uninterrupted run" >&2
      diff "${workdir}/${family}_baseline.txt" \
           "${workdir}/${family}_killed.txt" | head -20 >&2
      exit 1
    fi
    echo "   post-SIGKILL ${family} resume is byte-identical to the baseline"
  done
fi

echo
echo "crash suite passed"
