#!/usr/bin/env python3
"""Benchmark of the moa fault simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the `moa` binary and the
in-process harness (perfbench/harness) from source, generates the workload's
inputs from the seed, measures for about S seconds, checks the outputs and
prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics; a traced run also prints a per-layer
table and writes a span file under .perfbench/spans/. Workloads:

    serve-mix     `moa serve --workers 1 --shards 2` driven by two clients
    dispatch-mix  the same job mix through `moa serve --dispatch` + `moa work`

Exit status is 0 whenever a result is printed (a failed correctness check
prints "correct": false); any other failure exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-mix", "dispatch-mix")
TAIL_PERCENTILE = 75  # `_tail` metrics: nearest-rank p75 of the run's samples
TAIL_SAMPLES = 40  # samples a run needs for 10 of them to lie beyond p75
SPEC_POOL = 400  # job specs generated per run; a run never needs more
SETUP_SPAWNS = 3  # daemon start-ups per run; setup_s is their median


class BenchError(Exception):
    """An infrastructure failure: the run prints no result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def declared_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build(root):
    """Builds `moa` and the harness; returns their paths."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        raise BenchError("run from the root of a moa checkout (Cargo.toml and crates/ missing)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "moa-cli", "--bin", "moa"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "harness", "Cargo.toml")],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "moa"), os.path.join(release, "perfbench-harness")


def source_hash(root):
    """Hash of the sources that decide the deterministic counts."""
    h = hashlib.sha256()
    for base in ("crates", "perfbench/harness/src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Children:
    """Every process the run starts; all are reaped on exit, success or not."""

    def __init__(self):
        self.procs = []

    def spawn(self, cmd, **kwargs):
        proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
        self.procs.append(proc)
        return proc

    def stop(self, proc, sig=signal.SIGTERM, grace=10.0):
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        for stream in (proc.stdout, proc.stderr):
            if stream:
                stream.close()

    def stop_all(self):
        for proc in reversed(self.procs):
            self.stop(proc, grace=5.0)
        self.procs = []


def harness(children, exe, args, timeout=170):
    """Runs one harness subcommand and returns its JSON output."""
    proc = children.spawn([exe] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        children.stop(proc, signal.SIGKILL)
        raise BenchError(f"harness {args[0]} timed out")
    if proc.returncode != 0:
        return None, err.strip()
    return json.loads(out.strip().splitlines()[-1]), None


def peak_rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------------
# Daemon client (newline-delimited JSON over TCP)
# ---------------------------------------------------------------------------


class Conn:
    def __init__(self, addr, timeout=60.0):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, obj):
        self.send_line((json.dumps(obj) + "\n").encode())

    def send_line(self, line):
        self.sock.sendall(line)

    def read(self):
        line = self.reader.readline()
        if not line:
            raise BenchError("the daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def read_addr(spool):
    try:
        with open(os.path.join(spool, "daemon.addr")) as f:
            text = f.read().strip()
    except OSError:
        return None
    return text if text.count(":") == 1 and text.endswith(tuple("0123456789")) else None


class Daemon:
    """One `moa serve` (and, for dispatch, one `moa work`) under a spool."""

    def __init__(self, children, moa, workdir, dispatch):
        self.children = children
        self.spool = os.path.join(workdir, "spool")
        self.worker_log = []
        self.worker = None
        started = time.perf_counter()
        # In dispatch mode a second job thread registers the next job's
        # shards while the worker runs the current one; with one, the worker
        # would find nothing to lease between jobs and sleep the daemon's
        # fixed 500 ms idle retry every time.
        cmd = [moa, "serve", "--spool", self.spool, "--addr", "127.0.0.1:0",
               "--workers", "2" if dispatch else "1", "--shards", "2"]
        if dispatch:
            cmd.append("--dispatch")
        self.log = open(os.path.join(workdir, "daemon.log"), "w")
        self.proc = children.spawn(cmd, stdout=self.log, stderr=subprocess.STDOUT)
        self.addr = self._wait_ready()
        if dispatch:
            connected = threading.Event()
            self.worker = children.spawn(
                [moa, "work", "--spool", self.spool, "--scratch",
                 os.path.join(workdir, "work"), "--worker-id", "w1"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            threading.Thread(target=self._read_worker, args=(connected,), daemon=True).start()
            if not connected.wait(30):
                raise BenchError("moa work did not connect")
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("moa serve exited during start-up")
            addr = read_addr(self.spool)
            if addr:
                try:
                    conn = Conn(addr, timeout=5)
                    conn.send({"op": "status"})
                    ok = conn.read().get("ok")
                    conn.close()
                    if ok:
                        return addr
                except OSError:
                    pass
            time.sleep(0.002)
        raise BenchError("moa serve did not become ready")

    def _read_worker(self, connected):
        try:
            for line in self.worker.stdout:
                self.worker_log.append(line.rstrip("\n"))
                if "connected to" in line:
                    connected.set()
        except (OSError, ValueError):
            pass  # the pipe was closed when the worker was stopped

    def peak_rss_mb(self):
        rss = peak_rss_mb(self.proc.pid)
        if self.worker:
            rss += peak_rss_mb(self.worker.pid)
        return rss

    def stop(self):
        if self.worker:
            self.children.stop(self.worker, signal.SIGINT)
        self.children.stop(self.proc, signal.SIGTERM)
        self.log.close()


class Client(threading.Thread):
    """A closed loop: fresh job, then a resubmit of a finished job, repeat."""

    def __init__(self, cid, addr, seed, pool, finished, deadline):
        super().__init__(daemon=True)
        self.cid, self.addr, self.pool, self.finished = cid, addr, pool, finished
        self.rng = random.Random(seed * 7919 + cid)
        self.deadline = deadline
        self.jobs, self.hits, self.errors = [], [], []
        self.rejected = 0

    def run(self):
        try:
            conn = Conn(self.addr)
            fresh = True
            while time.perf_counter() < self.deadline:
                if fresh or not self.finished.snapshot():
                    index = self.pool.take()
                    if index is None:
                        break
                    self.fresh_job(conn, index)
                else:
                    self.hit(conn)
                fresh = not fresh
            conn.close()
        except Exception as e:  # noqa: BLE001 - reported as a failed operation
            self.errors.append(f"client {self.cid}: {e}")

    def fresh_job(self, conn, index):
        job = self.pool.specs[index]
        rec = {"index": index, "job": job["job"], "events": {}, "retried": 0}
        rec["submit"] = time.perf_counter()
        conn.send_line(self.pool.lines[index])
        reply = conn.read()
        rec["reply"] = time.perf_counter()
        rec["outcome"] = reply.get("outcome", reply.get("error", "error"))
        if rec["outcome"] == "rejected":
            self.rejected += 1
        if rec["outcome"] not in ("accepted", "coalesced"):
            self.jobs.append(rec)
            return
        conn.send({"op": "watch", "job": job["job"]})
        rec["watch"] = time.perf_counter()
        while True:
            event = conn.read()
            now = time.perf_counter()
            name = event.get("event", "error")
            if name == "retried":
                rec["retried"] += 1
            rec["events"].setdefault(name, now)
            if name in ("done", "poisoned", "interrupted", "error"):
                rec["state"] = name
                rec["digest"] = event.get("digest")
                break
        rec["finished"] = rec["events"].get("finished", rec["events"][rec["state"]])
        rec["started"] = rec["events"].get("started", rec["watch"])
        self.jobs.append(rec)
        if rec["state"] == "done":
            self.finished.add(index, rec["digest"])

    def hit(self, conn):
        index, digest = self.rng.choice(self.finished.snapshot())
        line = self.pool.lines[index]
        start = time.perf_counter()
        conn.send_line(line)
        reply = conn.read()
        ms = (time.perf_counter() - start) * 1e3
        ok = reply.get("outcome") == "cached" and reply.get("digest") == digest
        self.hits.append({"index": index, "ms": ms, "ok": ok, "start": start})


class Pool:
    """The run's job specs; `take` hands out each fresh job once."""

    def __init__(self, specs):
        self.specs = specs
        self.lines = [(json.dumps({"op": "submit", "spec": s["spec"]}) + "\n").encode()
                      for s in specs]
        self.next = 0
        self.lock = threading.Lock()

    def take(self):
        with self.lock:
            if self.next >= len(self.specs):
                return None
            self.next += 1
            return self.next - 1


class Finished:
    def __init__(self):
        self.items = []
        self.lock = threading.Lock()

    def add(self, index, digest):
        with self.lock:
            self.items.append((index, digest))

    def snapshot(self):
        with self.lock:
            return list(self.items)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Nearest-rank TAIL_PERCENTILE percentile."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, -(-TAIL_PERCENTILE * len(v) // 100))
    return v[rank - 1]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Run:
    """State shared by the workload functions of one run."""

    def __init__(self, root, args, moa, exe, children):
        self.args, self.moa, self.exe, self.children = args, moa, exe, children
        self.src = source_hash(root)
        self.state = os.path.join(root, ".perfbench")
        self.workdir = os.path.join(self.state, "runs", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.problems = []  # correctness failures
        self.counts = {}  # deterministic counts checked across runs
        self.spans_path = None

    def fail(self, message):
        log(f"CORRECTNESS: {message}")
        self.problems.append(message)

    def spans_file(self):
        d = os.path.join(self.state, "spans")
        os.makedirs(d, exist_ok=True)
        self.spans_path = os.path.join(
            d, f"{self.args.workload}-seed{self.args.seed}-{os.getpid()}.json")
        return self.spans_path

    def expected_digests(self):
        table = load_json(os.path.join(HERE, "expected.json"))
        if self.args.seed != table["seed"]:
            return None
        return table["digests"].get(self.args.workload)

    def record_counts(self):
        """Deterministic counts must repeat across runs of the same code and
        seed: the first run records them, later runs compare."""
        d = os.path.join(self.state, "counts")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"{self.src}-{self.args.workload}-seed{self.args.seed}.json")
        if os.path.exists(path):
            previous = load_json(path)
            for key, value in self.counts.items():
                if key in previous and previous[key] != value:
                    self.fail(f"deterministic count {key} changed: {previous[key]} -> {value}")
            merged = dict(previous, **self.counts)
        else:
            merged = self.counts
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(merged, f, sort_keys=True)
        os.replace(tmp, path)


def daemon_workload(run):
    a = run.args
    dispatch = a.workload == "dispatch-mix"
    specs_path = os.path.join(run.workdir, "specs.jsonl")
    out, err = harness(run.children, run.exe, ["specs", "--seed", str(a.seed), "--count",
                                                str(SPEC_POOL), "--out", specs_path])
    if out is None:
        raise BenchError(f"spec generation failed: {err}")
    faults_per_job = out["check"]["faults_per_job"]
    with open(specs_path) as f:
        specs = [json.loads(line) for line in f]

    # Set-up: start the daemon (and worker) several times; keep the last.
    setups, daemon = [], None
    for k in range(SETUP_SPAWNS):
        workdir = os.path.join(run.workdir, f"daemon-{k}")
        os.makedirs(workdir)
        if daemon:
            daemon.stop()
        daemon = Daemon(run.children, run.moa, workdir, dispatch)
        setups.append(daemon.setup_s)

    pool, finished = Pool(specs), Finished()
    start = time.perf_counter()
    clients = [Client(c, daemon.addr, a.seed, pool, finished, start + a.seconds) for c in (0, 1)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=150)
        if c.is_alive():
            raise BenchError("a client did not finish")
    loop_s = time.perf_counter() - start
    time.sleep(0.05)  # let the worker's last log lines arrive
    rss = daemon.peak_rss_mb()
    worker_log = list(daemon.worker_log)
    daemon.stop()

    jobs = [j for c in clients for j in c.jobs]
    hits = [h for c in clients for h in c.hits]
    for c in clients:
        for e in c.errors:
            run.fail(e)
    done = [j for j in jobs if j.get("state") == "done"]
    used = max((j["index"] for j in jobs), default=-1) + 1

    # Reference digests and gate evals: direct full-list runs of the same
    # specs, computed once per seed and code (cached), always recomputed by
    # a traced run. A recomputation must repeat every cached count exactly.
    cache_dir = os.path.join(run.state, "expected")
    os.makedirs(cache_dir, exist_ok=True)
    cache_path = os.path.join(cache_dir, f"{run.src}-seed{a.seed}.json")
    cache = load_json(cache_path) if os.path.exists(cache_path) else []
    layers = {}
    if a.trace or len(cache) < used:
        cmd = ["verify", "--specs", specs_path, "--count", str(used), "--threads",
               "1" if a.trace else "2", "--trace", str(a.trace), "--scratch", run.workdir]
        if a.trace:
            cmd += ["--spans", os.path.join(run.workdir, "harness-spans.json")]
        out, err = harness(run.children, run.exe, cmd)
        if out is None:
            raise BenchError(f"reference runs failed: {err}")
        check = out["check"]
        fresh = [list(pair) for pair in zip(check["digests"], check["gate_evals"])]
        for i, (old, new) in enumerate(zip(cache, fresh)):
            if old != new:
                run.fail(f"reference digest/gate evals of job {i} changed: {old} -> {new}")
        if len(fresh) > len(cache):
            cache = fresh
            tmp = f"{cache_path}.{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(cache, f)
            os.replace(tmp, cache_path)
        if check["audit_failed"] or check["faulted"]:
            run.fail(f"reference runs: {check['audit_failed']} AuditFailed, "
                     f"{check['faulted']} Faulted")
        layers = out["metrics"]
        if a.trace:
            for key in ("checkpoint_flushes", "checkpoint_bytes"):
                run.counts[key] = check[key]
    digests = [d for d, _ in cache]
    expected = run.expected_digests()
    if expected is not None:
        for i, digest in enumerate(expected[:used]):
            if digests[i] != digest:
                run.fail(f"job {i} reference digest {digests[i]} differs from the recorded {digest}")

    failed = 0
    for j in jobs:
        if j.get("state") != "done" or j.get("digest") != digests[j["index"]]:
            failed += 1
            run.fail(f"job {j['index']}: {j.get('state', j['outcome'])}, digest "
                     f"{j.get('digest')} vs direct {digests[j['index']]}")
    for h in hits:
        if not h["ok"]:
            failed += 1
            run.fail(f"resubmit of job {h['index']} was not answered from the cache")
    attempted = len(jobs) + len(hits) + sum(len(c.errors) for c in clients)
    failed += sum(len(c.errors) for c in clients)
    if not done:
        run.fail("no job finished")

    job_ms = [(j["finished"] - j["submit"]) * 1e3 for j in done]
    hit_ms = [h["ms"] for h in hits]
    if min(len(job_ms), len(hit_ms)) < TAIL_SAMPLES:
        log(f"only {len(job_ms)} jobs and {len(hit_ms)} hits: fewer than 10 samples lie "
            f"beyond the p{TAIL_PERCENTILE} tail; use more --seconds")
    metrics = {
        "faults_per_s": len(done) * faults_per_job / loop_s,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "job_p50_ms": median(job_ms),
        "job_tail_ms": tail(job_ms),
        "hit_p50_ms": median(hit_ms),
        "hit_tail_ms": tail(hit_ms),
        "jobs_per_s": len(done) / loop_s,
    }
    if a.trace:
        metrics.update(layers)
        leases = [l for l in worker_log if "leased shard" in l]
        run_ms = median([(j["finished"] - j["started"]) * 1e3 for j in done])
        metrics.update({
            "serve.publish_ms": median([(j["reply"] - j["submit"]) * 1e3 for j in done]),
            "serve.queue_wait_ms": median([(j["started"] - j["reply"]) * 1e3 for j in done]),
            "serve.run_ms": run_ms,
            "serve.hit_ms": median(hit_ms),
            "serve.rejected": sum(c.rejected for c in clients),
            "serve.retried": sum(j["retried"] for j in jobs),
            "dispatch.run_ms": run_ms if dispatch else 0,
            "dispatch.leases": len(leases),
            "dispatch.redispatches": len(leases) - len(set(l.split("leased shard ")[1] for l in leases)),
            "dispatch.upload_rejected": sum("uploaded (rejected)" in l for l in worker_log),
        })
        write_daemon_spans(run, jobs, hits, start)
    return metrics, attempted, failed


def write_daemon_spans(run, jobs, hits, origin):
    """Client-side job spans (submit -> finished, with publish / queue wait /
    run children) merged with the harness's spans of the reference runs."""
    path = os.path.join(run.workdir, "harness-spans.json")
    spans = load_json(path) if os.path.exists(path) else []
    us = lambda t: int((t - origin) * 1e6)  # noqa: E731
    next_id = len(spans) + 1

    def add(name, start, end, parent, group):
        nonlocal next_id
        spans.append({"id": next_id, "name": name, "start_us": us(start), "end_us": us(end),
                      "parent": parent, "group": group, "clock": "client"})
        next_id += 1
        return next_id - 1

    for j in jobs:
        if j.get("state") != "done":
            continue
        group = f"job-{j['index']}"
        root = add("serve.job", j["submit"], j["finished"], None, group)
        add("serve.publish", j["submit"], j["reply"], root, group)
        add("serve.queue_wait", j["reply"], j["started"], root, group)
        add("serve.run", j["started"], j["finished"], root, group)
    for h in hits:
        add("serve.hit", h["start"], h["start"] + h["ms"] / 1e3, None, f"job-{h['index']}")
    with open(run.spans_file(), "w") as f:
        json.dump(spans, f)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def print_layer_table(metrics, units, spans):
    rows = [(name, metrics.get(name, 0), unit) for name, unit in units.items()]
    width = max(len(n) for n, _, _ in rows)
    print("per-layer metrics:")
    for name, value, unit in rows:
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>16} {unit}")
    wall = metrics.get("trace.wall_ms", 0)
    if wall:
        print(f"core.replay_ms is {100 * metrics['core.replay_ms'] / wall:.1f}% of the "
              f"{wall:.1f} ms traced campaign wall time of the reference runs")
    if spans:
        print(f"span file: {spans}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    children = Children()

    def interrupted(signum, _frame):
        raise BenchError(f"interrupted by signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGALRM, interrupted)
    run = None
    try:
        end_to_end, per_layer = declared_metrics(root)
        moa, exe = build(root)
        signal.alarm(175)  # the run must end well within its time limit
        run = Run(root, args, moa, exe, children)
        metrics, attempted, failed = daemon_workload(run)
        run.record_counts()
        correct = not run.problems
        if not correct:
            failed = attempted = max(attempted, 1)
        metrics["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
        units = per_layer if args.trace else end_to_end
        missing = sorted(set(units) - set(metrics))
        if missing and correct:
            raise BenchError(f"metrics declared but not measured: {missing}")
        undeclared = sorted(set(metrics) - set(end_to_end) - set(per_layer))
        if undeclared:
            raise BenchError(f"metrics measured but not declared: {undeclared}")
        if args.trace:
            print_layer_table(metrics, units, run.spans_path)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in units.items()},
        }
        print(json.dumps(result))
        return 0
    except BenchError as e:
        log(f"error: {e}")
        return 2
    finally:
        signal.alarm(0)
        children.stop_all()
        if run is not None:
            shutil.rmtree(run.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
