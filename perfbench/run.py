#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

Workloads (definitions and reasons in BENCHMARK.json and
perfbench/layers.json):

  paper_cold    `mbcr sweep` of the paper-scale suite (all 11 benchmarks,
                all inputs, paper L1, --full) into an empty store
  assoc4_quick  quick sweep at 4096:4:32 (the generic batch engine) of nine
                benchmarks into an empty store
  service_storm three storms of --seconds / 3 each, each on a fresh `mbcr
                serve --http --spawn-workers 2..2` daemon fed by an open-loop
                HTTP client: overlapping pub_tac sweeps on a fixed schedule

The sweep workloads repeat their sweep, each time into a new store, until
--seconds have passed, and report medians.

`--trace 0` runs the real `mbcr` binary with telemetry off and reports the
end-to-end metrics. `--trace 1` runs the workload once untraced, then a
traced run: `perfbench-probe` (perfbench/probe) drives the engine's public
seams itself and times every call into a layer, replays the analysis through
the crates' public functions, and measures layer micro rows on the
workload's own traces and samples. The program is never instrumented.

Every run checks the outputs: no failed job, one Table 2 digest per
workload and seed, equal to the one pinned for the seed, a warm re-run of
the sweep that executes nothing and reproduces the cold Table 2 byte for
byte, storm sweeps whose Table 2 equals an in-process `run_sweep` of the
same spec, and (traced) replays that reproduce the stored artifacts. The last line of stdout is the result object; the exit code is
nonzero when a check fails. `--seed n` picks the sweeps' master seed from
a panel of pinned seeds (PANEL); seed 2 is held out for confirming claims.
"""

import argparse
import ctypes
import hashlib
import http.client
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("paper_cold", "assoc4_quick", "service_storm")
THREADS = 2
# The sweeps' master seeds: `--seed n` runs PANEL[(n - 1) % len(PANEL)].
# The seed decides how long each paper campaign runs (across seeds, fdct's
# took 3k-170k runs and ns's 59k-424k), so over seeds 1-40 the paper store
# ranged from 28.5 to 44.4 MB; one set of ten seeds put the store's IQR at
# 0.29 of its median. The panel holds the twelve seeds of 1-40 whose paper
# store is nearest the median size (34.4-36.9 MB), so a run's seed changes
# the inputs but hardly the amount of work, and every panel seed's Table 2
# is pinned in layers.json.
PANEL = (2, 3, 6, 8, 9, 14, 15, 18, 22, 25, 29, 30)
# fdct and jfdc are left out of assoc4_quick: each alone is a ~30 s serial
# chain (2.5 MB TAC artifacts parsed twice), which no run budget affords.
ASSOC4_BENCHMARKS = ["bs", "cnt", "fir", "janne", "crc", "edn", "insertsort",
                     "matmult", "ns"]
# The storm's sweeps are `mbcr loadgen`'s: quick pub_tac sweeps of bs or cnt,
# campaigns capped at 600 runs, checkpoints every 200. loadgen alternates
# the two; here cnt takes two sweeps in three, because bs and cnt sweeps
# form two latency modes and a 1:1 mix puts the median between them, where
# it moved by 14% (IQR/median) from seed to seed.
STORM_BENCHMARKS = ["bs", "cnt", "cnt"]
STORM_CAMPAIGN_CAP = 600
STORM_CHECKPOINT = 200
# The open-loop submit schedule: one sweep every 0.25 s (4/s). Bursts of 80
# such sweeps drain at 12.4-12.9 sweeps/s on the 2-core reference host, so
# the storm offers about a third of the daemon's capacity: latency is
# service time, not a backlog that grows with --seconds. At half capacity
# (0.15 s) the latencies rose by 40% whenever the shared host slowed.
STORM_INTERVAL_S = 0.25
STORMS = 3  # storms per run, --seconds / STORMS each, each against a fresh daemon
POLL_S = 0.025
# Per-layer metrics only the service storm exercises; 0 on the sweeps.
STORM_LAYERS = ("gateway.request_p50_ms", "gateway.ttfe_p50_ms", "gateway.sse_events",
                "shard.shipped_mb", "shard.elided_mb", "service.dedup_frac",
                "service.parked_claims", "service.claim_spread", "gen.lateness_ms")
SWEEP_TIMEOUT_S = 170
STARTUPS = 5  # cold-sweep set-up proxy launches per run; setup_s is their median


class BenchError(Exception):
    """A failure that makes the run's result meaningless."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven), and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # nearest rank
    return ordered[rank - 1], pct


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# --- processes ------------------------------------------------------------

def become_subreaper():
    """Orphaned grandchildren (the daemon's workers) re-parent to this
    process, so it can stop them, wait for them and count their CPU."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def run_measured(argv, out_path, timeout=SWEEP_TIMEOUT_S):
    """Runs one process tree to completion; wall, CPU (user + sys of the
    process and every descendant it waited for) and peak RSS from wait4."""
    with open(out_path, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        output = Path(out_path).read_text(errors="replace").splitlines()[-20:]
        raise BenchError(f"{' '.join(map(str, argv[:2]))} exited {proc.returncode}:\n"
                         + "\n".join(output))
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def build():
    """Builds the `mbcr` CLI and the probe from source in this checkout."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    for manifest, extra in (("Cargo.toml", ["-p", "mbcr-shard"]),
                            ("perfbench/probe/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", manifest] + extra
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return str(target / "release" / "mbcr"), str(target / "release" / "perfbench-probe")


def host_fingerprint(seed):
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    source = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*.rs")) + sorted(ROOT.glob("crates/*/Cargo.toml")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "avx512_f_dq_vl_bmi2": {"avx512f", "avx512dq", "avx512vl", "bmi2"} <= flags,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


# --- sweeps through the CLI -----------------------------------------------

def paper_spec(seed):
    return {"name": "paper", "inputs": "all", "seeds": [seed], "quick": False}


def assoc4_spec(seed):
    return {"name": "assoc4", "benchmarks": ASSOC4_BENCHMARKS,
            "geometries": [{"size_bytes": 4096, "ways": 4, "line_size": 32}],
            "seeds": [seed]}


def cli_sweep(ctx, spec_path, store):
    """One `mbcr sweep` invocation, measured, with its store checked."""
    m = run_measured([ctx.mbcr, "sweep", "--spec", str(spec_path), "--out", str(store),
                      "--threads", str(THREADS)], ctx.work / "mbcr.log")
    manifest = json.loads((store / "manifest.json").read_text())
    counts = manifest["counts"]
    m.update(counts)
    m["jobs"] = len(manifest["jobs"])
    m["table2"] = sha256_file(store / "table2.csv")
    m["store_mb"] = dir_bytes(store) / 1e6
    if counts["failed"]:
        ctx.fail(f"{counts['failed']} failed jobs in {store.name}")
    return m


def startup_s(ctx, spec):
    """The cold sweeps' set-up proxy. Their own set-up, writing the spec and
    creating the empty store, takes 0.1-1 ms, and its median moved by 40%
    (IQR/median) from run to run on a shared file system. So setup_s there
    is the median time to launch `mbcr` and classify the suite's cache
    accesses at the sweep's geometry (`mbcr classify --all`, the static pass
    behind the manifest's cache_class block): a compute-bound start-up."""
    argv = [ctx.mbcr, "classify", "--all"]
    for g in spec.get("geometries", []):
        argv += ["--geometry", f"{g['size_bytes']}:{g['ways']}:{g['line_size']}"]
    return median(run_measured(argv, ctx.work / "mbcr.log")["wall"] for _ in range(STARTUPS))


def sweep_workload(ctx, spec):
    spec_path = ctx.work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    setup = startup_s(ctx, spec)
    reps = []
    start = time.perf_counter()
    while not reps or (not ctx.trace and time.perf_counter() - start < ctx.seconds):
        store = ctx.work / f"store-{len(reps)}"
        reps.append(cli_sweep(ctx, spec_path, store))
    if len({r["table2"] for r in reps}) != 1:
        ctx.fail("table2.csv differs between repeats")
    # The same sweep again on the last store must find every node cached
    # and reproduce its Table 2 byte for byte.
    warm = cli_sweep(ctx, spec_path, store)
    if warm["executed"]:
        ctx.fail(f"warm sweep executed {warm['executed']} nodes")
    if warm["table2"] != reps[0]["table2"]:
        ctx.fail("warm table2.csv differs from the cold one")
    walls = [r["wall"] for r in reps]
    latency_tail, pct = tail(walls)
    result = {
        "metrics": {
            "setup_s": setup,
            "wall_s": median(walls),
            "cpu_s": median(r["cpu"] for r in reps),
            "peak_rss_mb": max(r["rss_mb"] for r in reps),
            "store_mb": median(r["store_mb"] for r in reps),
            "sweep_latency_p50_s": median(walls),
            "sweep_latency_tail_s": latency_tail,
        },
        "samples": {"sweeps": len(reps), "tail_percentile": pct, "setup": STARTUPS},
        "table2_sha256": reps[0]["table2"],
        "pin": ("paper" if spec["name"] == "paper" else "assoc4_quick", str(ctx.sweep_seed)),
        "attempted": sum(r["jobs"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
    }
    if ctx.trace:
        probe_store = ctx.work / "probe-store"
        layers = probe_sweep(ctx, spec_path, probe_store, replay=True)
        if sha256_file(probe_store / "table2.csv") != reps[0]["table2"]:
            ctx.fail("the traced sweep's table2.csv differs from the CLI's")
        metrics = layers["metrics"]
        metrics.update(dict.fromkeys(STORM_LAYERS, 0.0))
        metrics["trace_overhead_frac"] = layers["checks"]["sweep_s"] / reps[0]["wall"] - 1
        result["layers"] = metrics
        result["replayed"] = layers["checks"]["replayed"]
    return result


def probe_sweep(ctx, spec_path, store, replay):
    out = ctx.work / "probe.json"
    argv = [ctx.probe, "sweep", "--spec", str(spec_path), "--store", str(store)] \
        + (["--replay"] if replay else [])
    with open(out, "wb") as sink:
        proc = subprocess.run(argv, cwd=ROOT, stdout=sink, timeout=SWEEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("perfbench-probe sweep failed")
    doc = json.loads(out.read_text().strip().splitlines()[-1])
    checks = doc["checks"]
    if checks["failed"]:
        ctx.fail(f"traced sweep: {checks['failed']} failed jobs")
    for mismatch in checks["replay_mismatches"]:
        ctx.fail(f"replay: {mismatch}")
    return doc


# --- the service storm ----------------------------------------------------

def request(addr, method, path, body=None, timeout=30):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload is not None else {}
    start = time.perf_counter()
    try:
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    secs = time.perf_counter() - start
    try:
        doc = json.loads(data) if data else None
    except ValueError:
        doc = None
    return resp.status, doc, secs


class Daemon:
    """`mbcr serve` in its own process group, with autoscaled workers."""

    def __init__(self, ctx, store):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [ctx.mbcr, "serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0",
             "--spawn-workers", "2..2", "--out", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            cwd=ROOT, start_new_session=True)
        self.addr = None
        deadline = start + 60
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace").strip()
            if line.startswith("http listening on "):
                self.addr = line[len("http listening on "):]
                break
        if self.addr is None:
            self.stop()
            raise BenchError("the daemon exited before printing its http address")
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        while True:
            status, doc, _ = request(self.addr, "GET", "/v1/healthz")
            if status == 200 and doc and doc.get("workers", 0) >= 2:
                break
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("workers never connected to the daemon")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """SIGTERM to the whole group, then wait for every process of it;
        returns (CPU seconds, peak RSS MB) over the tree."""
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        killer = threading.Timer(10, self._kill)
        killer.start()
        cpu, rss = 0.0, 0.0
        try:
            while True:
                try:
                    pid, status, usage = os.wait4(-1, 0)
                except ChildProcessError:
                    break
                if pid == self.proc.pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                cpu += usage.ru_utime + usage.ru_stime
                rss = max(rss, usage.ru_maxrss / 1024)
        finally:
            killer.cancel()
        return cpu, rss

    def _kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def storm_specs(seed, count):
    specs = []
    for k in range(count):
        specs.append({
            "name": f"storm-{k:02d}",
            "benchmarks": [STORM_BENCHMARKS[k % len(STORM_BENCHMARKS)]],
            # As in loadgen: the shared seed (here the panel seed) is the
            # cross-sweep dedup overlap, and seed 100 + k is work unique to
            # the sweep. The unique seeds do not follow --seed: drawn from
            # it (seed * 1000 + 100 + k), seed 10's storms took 31% more CPU
            # than seed 1's, run back to back.
            "seeds": [seed, 100 + k],
            "analyses": ["pub_tac"],
            "max_campaign_runs": STORM_CAMPAIGN_CAP,
        })
    return specs


def follow(addr, ids, results):
    """The SSE follower: streams each submitted sweep in turn."""
    host, port = addr.rsplit(":", 1)
    while True:
        sid = ids.get()
        if sid is None:
            return
        first, events, error = None, 0, None
        try:
            conn = http.client.HTTPConnection(host, int(port), timeout=60)
            start = time.perf_counter()
            conn.request("GET", f"/v1/sweeps/{sid}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                error = f"HTTP {resp.status}"
            event = None
            while error is None:
                line = resp.readline()
                if not line:
                    error = "stream ended before 'end'"
                    break
                line = line.decode(errors="replace").rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line == "" and event:
                    events += 1
                    if event == "progress" and first is None:
                        first = time.perf_counter() - start
                    if event == "end":
                        break
                    event = None
            conn.close()
        except OSError as e:
            error = str(e)
        results.append({"id": sid, "ttfe": first, "events": events, "error": error})


def storm(ctx, store, specs):
    """One storm against a fresh daemon: submits `specs` on the open-loop
    schedule and waits until every sweep is terminal."""
    daemon = Daemon(ctx, store)
    addr = daemon.addr
    count = len(specs)
    ids, lateness, terminal, latencies_http = [], [], {}, []
    http_failures = 0
    follow_queue, follow_results = queue.Queue(), []
    follower = threading.Thread(target=follow, args=(addr, follow_queue, follow_results))
    follower.start()
    try:
        t0 = time.perf_counter() + 0.05
        t0_wall = time.time() + (t0 - time.perf_counter())
        schedule = [t0 + k * STORM_INTERVAL_S for k in range(count)]
        last_poll = 0.0
        deadline = t0 + ctx.seconds + 60
        while True:
            now = time.perf_counter()
            if len(ids) < count and now >= schedule[len(ids)]:
                k = len(ids)
                lateness.append(now - schedule[k])
                body = {"spec": specs[k], "priority": k % 3 + 1,
                        "checkpoint_interval": STORM_CHECKPOINT}
                status, doc, secs = request(addr, "POST", "/v1/sweeps", body)
                latencies_http.append(secs)
                if status != 201 or not doc or "sweep" not in doc:
                    raise BenchError(f"POST /v1/sweeps: HTTP {status}")
                ids.append(doc["sweep"])
                follow_queue.put(doc["sweep"])
                continue
            if len(ids) == count and len(terminal) == count:
                break
            if now > deadline:
                raise BenchError("the storm did not finish in time")
            if now - last_poll >= POLL_S:
                last_poll = now
                status, doc, secs = request(addr, "GET", "/v1/sweeps")
                latencies_http.append(secs)
                if status != 200:
                    http_failures += 1
                    continue
                for row in doc.get("sweeps", []):
                    if row["id"] in ids and row["id"] not in terminal and \
                            row["state"] in ("done", "canceled"):
                        terminal[row["id"]] = row
            wake = min([last_poll + POLL_S] + schedule[len(ids):len(ids) + 1])
            time.sleep(max(0.0, wake - time.perf_counter()))
        service = {}
        if ctx.trace:
            status, service, _ = request(addr, "GET", "/v1/metrics")
            if status != 200:
                raise BenchError(f"GET /v1/metrics: HTTP {status}")
    finally:
        follow_queue.put(None)
        follower.join(timeout=120)
        cpu, rss = daemon.stop()

    failed_jobs = 0
    attempted = 0
    for sid in ids:
        row = terminal[sid]
        if row["state"] != "done":
            ctx.fail(f"sweep {sid} ended {row['state']}")
        failed_jobs += row["failed"]
        attempted += row["total"]
    stream_errors = sum(1 for r in follow_results if r["error"])
    if failed_jobs or http_failures or stream_errors or len(follow_results) != count:
        ctx.fail(f"storm: {failed_jobs} failed jobs, {http_failures} HTTP errors, "
                 f"{stream_errors} stream errors, {len(follow_results)}/{count} streams")
    # A sweep is terminal when the daemon finalizes it, writing its
    # manifest: the file's timestamp times it finer than the status poll.
    finished = [(store / "sweeps" / sid / "manifest.json").stat().st_mtime_ns / 1e9 - t0_wall
                for sid in ids]
    latencies = [done - k * STORM_INTERVAL_S for k, done in enumerate(finished)]
    return {
        "store": store, "ids": ids, "setup_s": daemon.setup_s, "cpu": cpu, "rss": rss,
        "makespan": max(finished), "latencies": latencies, "lateness": lateness,
        "http": latencies_http, "follow": follow_results, "service": service,
        "attempted": attempted + len(latencies_http) + count,
        "failed": failed_jobs + http_failures + stream_errors,
    }


def storm_workload(ctx):
    count = max(1, round(ctx.seconds / STORMS / STORM_INTERVAL_S))
    specs = storm_specs(ctx.sweep_seed, count)
    storms = [storm(ctx, ctx.work / f"service-{k}", specs) for k in range(STORMS)]

    # Each sweep's Table 2 must equal an in-process run_sweep of its spec,
    # in every storm.
    ids = storms[0]["ids"]
    reference = ctx.work / "reference"
    specs_path = ctx.work / "storm-specs.json"
    specs_path.write_text(json.dumps([{"id": sid, "spec": spec} for sid, spec in zip(ids, specs)]))
    proc = subprocess.run([ctx.probe, "reference", "--specs", str(specs_path), "--store",
                           str(reference)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, timeout=SWEEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("the in-process reference sweeps failed")
    digests = [sha256_file(reference / "sweeps" / sid / "table2.csv") for sid in ids]
    for run in storms:
        ours = [sha256_file(run["store"] / "sweeps" / sid / "table2.csv") for sid in run["ids"]]
        if ours != digests:
            ctx.fail("a storm sweep's table2.csv differs from in-process run_sweep")

    tails = [tail(run["latencies"]) for run in storms]
    result = {
        "metrics": {
            "setup_s": median(run["setup_s"] for run in storms),
            "wall_s": median(run["makespan"] for run in storms),
            "cpu_s": median(run["cpu"] for run in storms),
            "peak_rss_mb": max(run["rss"] for run in storms),
            "store_mb": median(dir_bytes(run["store"]) / 1e6 for run in storms),
            "sweep_latency_p50_s": median(median(run["latencies"]) for run in storms),
            "sweep_latency_tail_s": median(value for value, _ in tails),
        },
        "samples": {"storms": STORMS, "sweeps_per_storm": count,
                    "tail_percentile": tails[0][1], "setup": STORMS},
        "table2_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "pin": ("service_storm", f"{ctx.sweep_seed}/{count}"),
        "attempted": sum(run["attempted"] for run in storms),
        "failed": sum(run["failed"] for run in storms),
    }
    if ctx.trace:
        last = storms[-1]
        service, follow_results = last["service"], last["follow"]
        rows = [r for r in service.get("sweeps", []) if r["id"] in last["ids"]]
        claims = [r["claims"] for r in rows]
        affinity = service.get("affinity", {})
        ttfe = [r["ttfe"] for r in follow_results if r["ttfe"] is not None]
        layers = {
            "gateway.request_p50_ms": 1e3 * median(last["http"]),
            "gateway.ttfe_p50_ms": 1e3 * median(ttfe) if ttfe else 0.0,
            "gateway.sse_events": float(sum(r["events"] for r in follow_results)),
            "shard.shipped_mb": affinity.get("shipped_bytes", 0) / 1e6,
            "shard.elided_mb": affinity.get("elided_bytes", 0) / 1e6,
            "service.dedup_frac": sum(r["skipped"] for r in rows) / max(1, sum(r["total"] for r in rows)),
            "service.parked_claims": float(service.get("dedup_parked", 0)),
            "service.claim_spread": max(claims) / max(1, min(claims)) if claims else 0.0,
            "gen.lateness_ms": 1e3 * max(last["lateness"]),
            # The storm's layers are measured from outside the daemon.
            "trace_overhead_frac": 0.0,
        }
        spec_path = ctx.work / "spec.json"
        spec_path.write_text(json.dumps(specs[0]))
        probe = probe_sweep(ctx, spec_path, last["store"], replay=False)
        layers.update({k: v for k, v in probe["metrics"].items() if k not in layers})
        result["layers"] = layers
    return result


# --- the run --------------------------------------------------------------

class Context:
    def __init__(self, args, mbcr, probe, work):
        self.seed = args.seed
        self.sweep_seed = PANEL[(args.seed - 1) % len(PANEL)]
        self.seconds = args.seconds
        self.trace = args.trace
        self.mbcr = mbcr
        self.probe = probe
        self.work = work
        self.failures = []

    def fail(self, message):
        log(f"check failed: {message}")
        self.failures.append(message)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be positive")

    for required in ("BENCHMARK.json", "Cargo.toml", "crates/shard/Cargo.toml",
                     "perfbench/probe/Cargo.toml"):
        if not (ROOT / required).is_file():
            log(f"perfbench: run from the root of a repository checkout ({required} missing)")
            return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    become_subreaper()
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        mbcr, probe = build()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ctx = Context(args, mbcr, probe, work)
        if args.workload == "service_storm":
            result = storm_workload(ctx)
        else:
            sweep_spec = assoc4_spec(ctx.sweep_seed) if args.workload == "assoc4_quick" \
                else paper_spec(ctx.sweep_seed)
            result = sweep_workload(ctx, sweep_spec)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Table 2 against the digest pinned for this workload and seed: the
    # repeat, warm and in-process checks compare the program with itself.
    pins = json.loads((ROOT / "perfbench" / "layers.json").read_text())["table2_sha256"]
    group, key = result["pin"]
    pinned = pins[group].get(key)
    if pinned is not None and pinned != result["table2_sha256"]:
        ctx.fail(f"table2.csv digest {result['table2_sha256']} is not the pinned {pinned}")

    # Every metric by name and unit; the result line carries the
    # end-to-end ones untraced and the per-layer ones traced.
    tables = [("end_to_end", result["metrics"])]
    if args.trace:
        tables.append(("per_layer", result["layers"]))
    for kind, values in tables:
        metrics = {}
        for metric in bench[kind]:
            name = metric["name"]
            if name not in values:
                ctx.fail(f"no value for metric {name}")
                continue
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
            print(f"{name:32s} {values[name]:>16.6f} {metric['unit']}")
    details = {
        "workload": args.workload,
        "host": host_fingerprint(args.seed),
        "sweep_seed": ctx.sweep_seed,
        "samples": result["samples"],
        "table2_sha256": result["table2_sha256"],
        "table2_pinned": pinned is not None,
        "end_to_end": result["metrics"],
        "failures": ctx.failures,
    }
    if "replayed" in result:
        details["replayed_analyses"] = result["replayed"]
    print("perfbench-details " + json.dumps(details, sort_keys=True))
    correct = not ctx.failures
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
