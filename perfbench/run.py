#!/usr/bin/env python3
"""perfbench: the nodebench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `nodebench` and the layer tracer from this checkout into
.bench_build/, runs one workload for S seconds and prints, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, timed on the real binary the way users invoke it; with
--trace 1 they are the per-layer metrics, from the same inputs replayed
in-process by perfbench_layers. Every op's output is checked byte for
byte against a reference captured in the same run; a mismatch or a
non-zero exit counts as a failed op, never as a fast one. See README.md.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
NODEBENCH = BUILD / "src" / "cli" / "nodebench"
LAYERS = BUILD / "perfbench_layers"

RUNS = ["--runs", "100"]
SETUP_REPEATS = 5
# The open loop is invalid when the generator itself sends a request this
# late (four inter-arrival gaps): the offered schedule would then describe
# the client, not the daemon. Shorter host stalls hit client and daemon
# alike and are charged to the latencies through the due-time rule.
GEN_LATE_BOUND_MS = 1000.0

CPU_MACHINES = ["Trinity", "Theta", "Sawtooth", "Eagle", "Manzano"]
GPU_MACHINES = ["Frontier", "Summit", "Sierra", "Perlmutter", "Polaris",
                "Lassen", "RZVernal", "Tioga"]

# ---------------------------------------------------------------- build --


def build():
    """Configures the repository's own CMakeLists.txt (the tracer is
    attached through a project include hook) and builds the two targets."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: error: no nodebench sources next to perfbench/ "
                 f"(expected {ROOT}/CMakeLists.txt and src/)")
    BUILD.mkdir(exist_ok=True)
    log = open(BUILD / "build.log", "ab")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD), *gen,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     "-DNODEBENCH_WERROR=OFF",
                     "-DNODEBENCH_BUILD_TESTS=OFF",
                     "-DNODEBENCH_BUILD_BENCH=OFF",
                     "-DNODEBENCH_BUILD_EXAMPLES=OFF",
                     f"-DCMAKE_PROJECT_nodebench_INCLUDE={HERE / 'attach.cmake'}"]
        if subprocess.call(configure, stdout=log, stderr=log) != 0:
            shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            sys.exit(f"perfbench: error: cmake configure failed, see {log.name}")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                        "nodebench", "perfbench_layers"],
                       stdout=log, stderr=log) != 0:
        sys.exit(f"perfbench: error: build failed, see {log.name}")


# ----------------------------------------------------------- environment --


def cmake_cache(key):
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def fs_type(path):
    best, kind = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        mount = fields[1]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def environment(work):
    """es989-style system snapshot, stored with every result."""
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        describe = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True).stdout.strip()
    except OSError:
        describe = ""
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
        "scratch_fs": fs_type(work.resolve()),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "sanitizer": cmake_cache("NODEBENCH_SANITIZE"),
        "compiler": version,
        "git_describe": describe or "not a git checkout",
        "python": platform.python_version(),
        "NODEBENCH_VT_MODE": os.environ.get("NODEBENCH_VT_MODE", ""),
        "NODEBENCH_SIMCORE_FASTPATH":
            os.environ.get("NODEBENCH_SIMCORE_FASTPATH", ""),
    }
    env.update(json.loads(subprocess.run([str(LAYERS), "env"],
                                         capture_output=True, check=True,
                                         text=True).stdout))
    env["flagged"] = (env["build_type"] == "Debug" or env["sanitizer"] != "")
    return env


# ------------------------------------------------------------ operations --


class Tally:
    """Ops attempted and failed; each failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.lock = threading.Lock()

    def record(self, problems):
        with self.lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.reasons.extend(problems[:3])


class Spawner:
    """Runs one CLI command to completion: spawn-to-exit wall time, the
    child's peak RSS (wait4, so build processes never count) and its
    captured stdout."""

    def __init__(self, work):
        self.work = work
        self.peak_rss_kb = 0

    def run(self, argv):
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            ms = (time.perf_counter() - start) * 1e3
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return ms, proc.returncode, out_path.read_bytes()


def check_output(name, rc, stdout, reference):
    """Problems with one command's result: a non-zero exit, or stdout that
    differs from the reference in any byte."""
    problems = []
    if rc != 0:
        problems.append(f"{name}: exit code {rc}")
    if reference is not None and stdout != reference:
        at = next((i for i, (a, b) in enumerate(zip(stdout, reference))
                   if a != b), min(len(stdout), len(reference)))
        problems.append(f"{name}: stdout differs from the reference at "
                        f"byte {at}")
    return problems


def nb(*args):
    return [str(NODEBENCH), *args]


def run_layers(argv, tally):
    """Runs the in-process replay; its failure counts as a failed op."""
    proc = subprocess.run([str(LAYERS), *argv], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        tally.record([f"perfbench_layers: exit code {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}"])
        return {}
    return json.loads(proc.stdout)


def count_cells(journals):
    out = subprocess.run([str(LAYERS), "cells", *map(str, journals)],
                         capture_output=True, check=True, text=True).stdout
    return int(out)


# ------------------------------------------------------- table workloads --


class TableWorkload:
    """A closed loop with one client. One op is one pass of the
    workload's command cycle, in a seeded order."""

    def __init__(self, name, seed, work):
        self.name = name
        self.rng = random.Random(seed)
        self.work = work
        self.spawner = Spawner(work)
        self.refs = {}
        self.cells_per_op = 0

    def commands(self):
        if self.name == "paper-tables":
            return {k: nb("table", k, *RUNS, "--jobs", "1")
                    for k in ("all", "sweep", "chase")}
        return {k: nb("table", k, *RUNS, "--jobs", "2", "--metrics")
                for k in ("4", "5", "6")}

    def setup(self, tally):
        """Captures the reference outputs, SETUP_REPEATS times; each
        repeat must reproduce the first byte for byte."""
        samples = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            problems = []
            if self.name == "durable-campaign":
                ms, rc, out = self.spawner.run(
                    nb("table", "all", *RUNS, "--jobs", "1"))
                problems += check_output("table all", rc, out,
                                         self.refs.get("all"))
                self.refs.setdefault("all", out)
                problems += self.round_trip(f"ref{rep}", keep=rep == 0)[1]
            else:
                for key, argv in self.commands().items():
                    ms, rc, out = self.spawner.run(argv)
                    problems += check_output(key, rc, out, self.refs.get(key))
                    self.refs.setdefault(key, out)
            samples.append(time.perf_counter() - start)
            tally.record(problems)
        if self.name == "traced-campaign":
            # The trace session forces the event path; its tables must be
            # the analytic path's, byte for byte.
            problems = []
            for key in self.refs:
                ms, rc, plain = self.spawner.run(
                    nb("table", key, *RUNS, "--jobs", "1"))
                if not self.refs[key].startswith(plain):
                    problems.append(f"table {key}: event-path tables differ "
                                    "from the analytic path")
            tally.record(problems)
        self.cells_per_op = self.count_cells()
        return samples

    def count_cells(self):
        if self.name == "durable-campaign":
            # fresh run + resume replay + two shards
            return 3 * count_cells([self.work / "ref0.nbj"])
        cells = 0
        for key, argv in self.commands().items():
            journal = self.work / f"cells-{key}.nbj"
            journal.unlink(missing_ok=True)
            argv = [a for a in argv if a != "--metrics"]
            self.spawner.run(argv + ["--journal", str(journal)])
            cells += count_cells([journal])
            journal.unlink()
        return cells

    def round_trip(self, tag, keep=False):
        """durable-campaign's op: a fresh journaled run, --resume over the
        finished files, and a two-shard run merged back. Returns the
        spawn-to-exit time of its three commands and its problems."""
        w = self.work
        j, s = w / f"{tag}.nbj", w / f"{tag}.nbs"
        sj, ss = w / f"{tag}-s.nbj", w / f"{tag}-s.nbs"
        mj, ms_ = w / f"{tag}-m.nbj", w / f"{tag}-m.nbs"
        fresh = nb("table", "all", *RUNS, "--jobs", "1", "--journal", str(j),
                   "--store", str(s))
        shard = nb("shard", "all", "--shards", "2", "--journal", str(sj),
                   "--store", str(ss), *RUNS, "--jobs", "1", "--merge-out",
                   str(mj), "--merge-store-out", str(ms_))
        steps = [("fresh", fresh), ("resume", fresh + ["--resume"]),
                 ("shard", shard)]
        if self.rng.random() < 0.5:
            steps = [steps[2], steps[0], steps[1]]
        total, problems, outs = 0.0, [], {}
        for step, argv in steps:
            ms, rc, out = self.spawner.run(argv)
            total += ms
            outs[step] = out
            problems += check_output(step, rc, out, None)
        problems += check_output("fresh", 0, outs["fresh"], self.refs["all"])
        problems += check_output("resume", 0, outs["resume"], outs["fresh"])
        for merged, single in ((mj, j), (ms_, s)):
            if not merged.is_file() or merged.read_bytes() != single.read_bytes():
                problems.append(f"shard merge: {merged.name} differs from "
                                f"the --jobs 1 file {single.name}")
        if not keep:
            for p in w.glob(f"{tag}*"):
                p.unlink()
        return total, problems

    def loop(self, seconds, tally):
        """Runs ops until `seconds` have passed; returns op times (ms) and
        the loop's wall time (s)."""
        times = []
        start = time.perf_counter()
        keys = list(self.refs) if self.name != "durable-campaign" else []
        while not times or time.perf_counter() - start < seconds:
            if self.name == "durable-campaign":
                ms, problems = self.round_trip(f"op{len(times)}")
            else:
                self.rng.shuffle(keys)
                ms, problems = 0.0, []
                for key in keys:
                    t, rc, out = self.spawner.run(self.commands()[key])
                    ms += t
                    problems += check_output(key, rc, out, self.refs[key])
            times.append(ms)
            tally.record(problems)
        return times, time.perf_counter() - start

    def layers(self, seconds, tally):
        """The traced run: the same cycle replayed in-process."""
        render = self.work / "inproc.txt"
        argv = [self.name, "--work", str(self.work / "layers"),
                "--seconds", str(seconds), "--render-out", str(render)]
        if self.name == "durable-campaign":
            w = self.work
            argv += ["--journal", str(w / "ref0.nbj"),
                     "--store", str(w / "ref0.nbs"),
                     "--shard-journals",
                     *(str(w / f"ref0-s.nbj.shard{i}of2") for i in (0, 1)),
                     "--shard-stores",
                     *(str(w / f"ref0-s.nbs.shard{i}of2") for i in (0, 1))]
        layer = run_layers(argv, tally)
        if layer:
            order = {"paper-tables": ["all", "sweep", "chase"],
                     "traced-campaign": ["4", "5", "6"],
                     "durable-campaign": ["all"]}[self.name]
            expected = b"".join(self.refs[k] for k in order)
            tally.record(check_output("in-process replay", 0,
                                      render.read_bytes(), expected))
        return layer


# --------------------------------------------------------- serve workload --


def http(sock_path, method, target, body=b"", timeout=60.0):
    """One request over the daemon's unix socket; returns (status, body)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        head = (f"{method} {target} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        s.sendall(head.encode() + body)
        chunks = []
        while chunk := s.recv(65536):
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1]) if header else 0
    return status, payload


class Daemon:
    """`nodebench serve --socket` with default flags and its own state
    directory; stopped with SIGTERM (graceful drain)."""

    def __init__(self, work, tag):
        self.sock = str((work / f"{tag}.sock").relative_to(Path.cwd()))
        self.state = work / f"{tag}-state"
        self.log = open(work / f"{tag}.log", "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            nb("serve", "--socket", self.sock, "--state-dir", str(self.state)),
            stdout=self.log, stderr=self.log)

    def wait_healthy(self, timeout=30.0):
        """Seconds from spawn until /healthz answers 200."""
        while time.perf_counter() - self.start < timeout:
            if self.proc.poll() is not None:
                break
            try:
                if http(self.sock, "GET", "/healthz", timeout=5.0)[0] == 200:
                    return time.perf_counter() - self.start
            except OSError:
                pass
            time.sleep(0.0005)
        raise RuntimeError("nodebench serve did not become healthy")

    def health(self):
        return json.loads(http(self.sock, "GET", "/healthz")[1])

    def peak_rss_kb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


# Every request costs the daemon a few fsyncs (spec, journal header,
# result) and a computed one an fsync per cell. On a shared ext4 disk the
# fsync latency wanders by a factor of two to three within seconds; at
# the paper's --runs 100 (about 1 ms of compute per table) a request's
# latency follows the disk, not the daemon. Fresh requests therefore ask
# for about 8000 runs, which makes compute most of a computed request
# (40-250 ms). At 4 requests/s the single executor is about a quarter
# busy on a 4-core x86 VM, so few requests wait for another; at 7/s
# (half busy) waiting behind the 200 ms requests more than doubled the
# run-to-run spread of op_ms_p50.
SERVE_RATE_PER_S = 4.0
FRESH_RUNS = range(7900, 8101, 5)
SERVE_CONNECTIONS = 4
REPEAT_MIN_AGE_S = 1.0
# Request shapes: (tables, families, machine pool). A fresh request
# measures its whole pool at a `runs` within 1.25 % of 8000, so requests
# of one shape cost the same and a shape's median latency does not
# depend on which of its requests a seed happens to send.
SHAPES = [
    ([4], [], CPU_MACHINES),
    ([5], [], GPU_MACHINES),
    ([6], [], GPU_MACHINES),
    ([7], [], GPU_MACHINES),
    ([4, 5], [], CPU_MACHINES + GPU_MACHINES),
    ([], ["sweep"], CPU_MACHINES),
    ([], ["chase"], GPU_MACHINES),
]
# Full-registry, paper-runs requests whose replies must equal the CLI's.
CANONICAL = [([4], []), ([5], []), ([6], []), ([7], []), ([], ["sweep"]),
             ([], ["chase"])]


def labels(spec):
    return [str(t) for t in spec.get("tables", [])] + spec.get("families", [])


def measurement_key(spec):
    return json.dumps({k: spec.get(k) for k in
                       ("tables", "families", "machines", "runs")},
                      sort_keys=True)


def class_weighted_median(schedule, latencies):
    """The median latency of each request class (memo hit or computed,
    the tables and families asked for, full registry or which pool),
    averaged with each class's share of the requests. Hits take a few ms
    and computed requests tens to hundreds, so the plain median of the
    mix sits on the edge of one class and jumps between classes from run
    to run; this statistic moves smoothly with every class."""
    classes = {}
    for (_, spec, role), ms in zip(schedule, latencies):
        key = (role == "repeat", tuple(labels(spec)),
               len(spec.get("machines", [])))
        classes.setdefault(key, []).append(ms)
    return sum(len(v) * statistics.median(v)
               for v in classes.values()) / len(latencies)


def generate_requests(seed, seconds):
    """The seeded open-loop schedule: (due offset s, spec, role). After
    the CANONICAL requests, blocks of 20 slots hold 11 fresh specs, 8
    repeats of a key sent at least REPEAT_MIN_AGE_S earlier (memo hits)
    and one store_samples request (which bypasses the memo). Fresh specs
    deal their shape and runs from shuffled decks, so every seed sends
    nearly the same mix in a different order."""
    rng = random.Random(seed)

    def deal(deck, cards):
        if not deck:
            deck.extend(cards)
            rng.shuffle(deck)
        return deck.pop()

    count = max(len(CANONICAL), int(SERVE_RATE_PER_S * seconds))
    used = set()
    fresh_sent = []  # (due, spec)
    out = []
    block, shapes, runs = [], [], []
    for i in range(count):
        due = i / SERVE_RATE_PER_S
        role = ("fresh" if i < len(CANONICAL) else
                deal(block, ["fresh"] * 11 + ["repeat"] * 8 + ["store"]))
        old = [spec for d, spec in fresh_sent if d <= due - REPEAT_MIN_AGE_S]
        if i < len(CANONICAL):
            tables, families = CANONICAL[i]
            spec = {"runs": 100}
        elif role != "fresh" and old:
            spec = dict(rng.choice(old))
        else:
            role = "fresh"
            shape = deal(shapes, range(len(SHAPES)))
            tables, families, pool = SHAPES[shape]
            spec = None
            while spec is None or measurement_key(spec) in used:
                spec = {"runs": deal(runs, FRESH_RUNS),
                        "machines": sorted(pool)}
                spec.update({"tables": tables} if tables else {})
                spec.update({"families": families} if families else {})
        if role == "fresh":
            spec.update({"tables": tables} if tables else {})
            spec.update({"families": families} if families else {})
            used.add(measurement_key(spec))
            fresh_sent.append((due, dict(spec)))
        spec["tenant"] = f"tenant{i % SERVE_CONNECTIONS}"
        spec["wait"] = True
        if role == "store":
            spec["store_samples"] = True
        out.append((due, spec, role))
    return out


class ServeWorkload:
    """An open loop: requests are sent on a fixed schedule over at most
    SERVE_CONNECTIONS connections and timed from their due time."""

    name = "serve-open-loop"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.spawner = Spawner(work)
        self.cli_refs = {}
        self.daemon = None
        self.peak_rss_kb = 0

    def setup(self, tally):
        """Daemon start until /healthz answers, SETUP_REPEATS times; the
        last daemon stays up for the loop. Also captures the CLI's tables
        that the canonical requests must reproduce."""
        for tables, families in CANONICAL:
            key = str(tables[0]) if tables else families[0]
            ms, rc, out = self.spawner.run(nb("table", key, *RUNS,
                                              "--jobs", "1"))
            tally.record(check_output(f"table {key}", rc, out, None))
            self.cli_refs[key] = out
        samples = []
        for rep in range(SETUP_REPEATS):
            daemon = Daemon(self.work, f"d{rep}")
            try:
                samples.append(daemon.wait_healthy())
            except RuntimeError:
                daemon.stop()
                raise
            if rep + 1 < SETUP_REPEATS:
                tally.record(check_output("serve drain", daemon.stop(), b"",
                                          None))
            else:
                self.daemon = daemon
        return samples

    def loop(self, seconds, tally, sample_health=False):
        schedule = generate_requests(self.seed, seconds)
        latencies = [None] * len(schedule)
        late = [0.0] * len(schedule)
        replies = [b""] * len(schedule)
        refs = {}
        ref_lock = threading.Lock()
        next_slot = iter(range(len(schedule)))
        slot_lock = threading.Lock()
        depth = {"max": 0}
        stop_health = threading.Event()
        t0 = time.perf_counter() + 0.05

        def client():
            while True:
                with slot_lock:
                    i = next(next_slot, None)
                if i is None:
                    return
                due, spec, role = schedule[i]
                # Waiting for a free connection is the daemon's queueing and
                # is charged to the latency below; only the generator's own
                # delay past due (or past the moment it got a connection)
                # counts as lateness.
                ready = max(t0 + due, time.perf_counter())
                now = time.perf_counter()
                if now < t0 + due:
                    time.sleep(t0 + due - now)
                late[i] = (time.perf_counter() - ready) * 1e3
                body = json.dumps(spec).encode()
                try:
                    status, payload = http(self.daemon.sock, "POST",
                                           "/requests", body)
                except OSError as e:
                    status, payload = 0, str(e).encode()
                latencies[i] = (time.perf_counter() - t0 - due) * 1e3
                replies[i] = payload
                tally.record(self.check_reply(spec, status, payload, refs,
                                              ref_lock))

        def health():
            while not stop_health.wait(0.25):
                try:
                    depth["max"] = max(depth["max"],
                                       self.daemon.health()["queued"])
                except (OSError, ValueError, KeyError):
                    pass

        threads = [threading.Thread(target=client)
                   for _ in range(SERVE_CONNECTIONS)]
        if sample_health:
            threads.append(threading.Thread(target=health))
        for t in threads:
            t.start()
        for t in threads[:SERVE_CONNECTIONS]:
            t.join()
        elapsed = time.perf_counter() - t0
        stop_health.set()
        for t in threads[SERVE_CONNECTIONS:]:
            t.join()
        self.schedule, self.replies = schedule, replies
        self.gen_late_ms_max = max(late)
        self.queue_depth_max = depth["max"]
        return latencies, elapsed

    def check_reply(self, spec, status, payload, refs, lock):
        if status != 200:
            return [f"POST /requests: HTTP {status}: {payload[:200]!r}"]
        try:
            reply = json.loads(payload)
        except ValueError:
            return ["POST /requests: reply is not JSON"]
        if reply.get("state") != "done":
            return [f"request {reply.get('id')}: state {reply.get('state')}"]
        got = {"tables": reply.get("tables"),
               "incidents": reply.get("incidents")}
        if "machines" not in spec:
            for label, text in got["tables"].items():
                if (text + "\n").encode() != self.cli_refs[label]:
                    return [f"request {reply['id']}: table {label} differs "
                            "from `nodebench table`"]
        key = measurement_key(spec)
        with lock:
            ref = refs.setdefault(key, got)
        if got != ref:
            return [f"request {reply['id']}: reply differs from the first "
                    "reply for the same measurement"]
        return []

    def finish(self):
        self.health_final = self.daemon.health()
        self.peak_rss_kb = self.daemon.peak_rss_kb()
        return self.daemon.stop()

    def cells(self):
        return count_cells(sorted(self.daemon.state.glob("*.journal")))

    def designed_hit_ratio(self):
        plain = [(spec, role) for _, spec, role in self.schedule
                 if role != "store"]
        hits = sum(len(labels(s)) for s, role in plain if role == "repeat")
        total = sum(len(labels(s)) for s, _ in plain)
        return hits / total

    def layers(self, tally):
        bodies = self.work / "bodies.jsonl"
        replies = self.work / "replies.jsonl"
        bodies.write_text("".join(json.dumps(s) + "\n"
                                  for _, s, _ in self.schedule))
        replies.write_bytes(b"".join(r + b"\n" for r in self.replies))
        return run_layers([self.name, "--work", str(self.work / "layers"),
                           "--bodies", str(bodies), "--replies", str(replies),
                           "--state-dir", str(self.daemon.state)], tally)


# ------------------------------------------------------------------ main --


def dir_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(args, spec):
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "layers").mkdir(parents=True)
    env = environment(work)
    if env["flagged"]:
        print("perfbench: warning: timing a Debug or sanitizer build",
              file=sys.stderr)
    tally = Tally()
    metrics = {}
    extra = {}
    if args.workload == "serve-open-loop":
        wl = ServeWorkload(args.seed, work)
        try:
            os.sync()
            setup = wl.setup(tally)
            os.sync()
            seconds = args.seconds * (0.6 if args.trace else 1.0)
            lat, elapsed = wl.loop(seconds, tally, sample_health=args.trace)
        finally:
            if wl.daemon:
                tally.record(check_output("serve drain", wl.finish(), b"",
                                          None))
        ops = lat
        op_ms_p50 = class_weighted_median(wl.schedule, lat)
        # Open loop: cells the daemon measured per second of the schedule.
        cells_per_s = wl.cells() / elapsed
        peak_kb = wl.peak_rss_kb
        extra["gen_late_ms_max"] = wl.gen_late_ms_max
        if wl.gen_late_ms_max > GEN_LATE_BOUND_MS:
            tally.reasons.append(
                f"generator ran {wl.gen_late_ms_max:.1f} ms late (bound "
                f"{GEN_LATE_BOUND_MS} ms): run invalid")
            extra["invalid"] = True
        if args.trace:
            layer = wl.layers(tally)
            h = wl.health_final
            n_plain = sum(len(labels(s)) for _, s, role in wl.schedule
                          if role != "store")
            layer.update({
                "serve.memo_hit_ratio": h["memo_hits"] / n_plain,
                "serve.rejected": h["rejected"],
                "serve.queue_depth_max": wl.queue_depth_max,
                "serve.state_bytes_per_req":
                    dir_bytes(wl.daemon.state) / len(wl.schedule),
                "bench.gen_late_ms_max": wl.gen_late_ms_max,
            })
            extra["designed_memo_hit_ratio"] = wl.designed_hit_ratio()
    else:
        wl = TableWorkload(args.workload, args.seed, work)
        os.sync()
        setup = wl.setup(tally)
        os.sync()
        seconds = args.seconds * (0.5 if args.trace else 1.0)
        ops, elapsed = wl.loop(seconds, tally)
        op_ms_p50 = statistics.median(ops)
        # Closed loop, one client: the throughput of the median op. A mean
        # over the loop would follow the rare fsync stall, not the program.
        cells_per_s = wl.cells_per_op * 1e3 / op_ms_p50
        peak_kb = wl.spawner.peak_rss_kb
        if args.trace:
            layer = wl.layers(seconds, tally)
            if layer:
                layer["cli.unattributed_ms"] = (statistics.median(ops) -
                                                layer["bench.inproc_op_ms"])
                layer["report.cells"] = wl.cells_per_op
    # op_ms_p95 swings by more than a tenth between runs on a shared host,
    # so it is reported here and in the results file but not gated.
    extra["op_ms_p95"] = (statistics.quantiles(ops, n=20, method="inclusive")
                          [-1] if len(ops) > 1 else ops[0])
    if args.trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = float(layer.get(m["name"], 0.0))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_ms_p50": op_ms_p50,
            "cells_per_s": cells_per_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": tally.failed == 0 and not extra.get("invalid", False),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "ops": len(ops),
              "fail_ratio": tally.failed / tally.attempted,
              "failures": tally.reasons[:20], **extra, **result}
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons[:20]:
        print(f"perfbench: failure: {reason}", file=sys.stderr)
    print("perfbench env: " + json.dumps(env))
    print(f"perfbench: {args.workload}: {len(ops)} ops, fail_ratio "
          f"{record['fail_ratio']:.4f}" +
          "".join(f", {k} {v:.4g}" for k, v in extra.items()
                  if isinstance(v, float)))
    print(json.dumps(result))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    build()
    run(args, spec)


if __name__ == "__main__":
    main()
