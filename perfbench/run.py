"""End-to-end benchmark of repro, with an optional layer-by-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds N] [--trace 0|1]

Workloads (``specs.WHY`` says why each exists):

``grid_cold``
    The ROADMAP canonical grid as a user runs it: ``repro evaluate
    --platforms sun-ethernet alpha-fddi sp1-switch --seeds S S+1 S+2
    --json OUT --history-db DB`` (378 jobs, event engine, serial
    backend, in-memory cache), one fresh process and temp dir per pass.
``tpl_sweep``
    ``run_evaluation(spec, engine="auto", history_db=DB)`` over 1..64 KiB
    in 1 KiB steps on five platforms (2910 jobs), a fresh process per pass.
``service_mixed``
    A ``repro serve --port 0 --cache-dir --db --history-db`` subprocess
    driven by one closed-loop user with one run in flight: submit, follow
    SSE to ``run_completed``, read the record until terminal, then one
    read rotating over ``/api/runs?user=``, ``/api/runs/{id}`` and
    ``/api/history/leaderboard``.  Each server serves a fixed number of
    timed runs, after an untimed pass through the spec deck that warms
    its disk cache, and then a fresh one takes over.

Each run measures for ``--seconds`` (passes started before the deadline
finish) and checks outputs: passes agree bit for bit, the golden spec
reproduces ``tests/data/golden_report.json``, a seeded sample of analytic
answers equals an event-kernel re-run, every service run completes with
all its samples and a cache-served sample equals its first simulation.

End-to-end metrics (tracing off); an *evaluation* is one CLI pass or one
service run:

``setup_s``            median spawn -> repro imported and ready (CLI passes),
                       spawn -> first ``200 /api/health`` (about nine server
                       starts)
``wall_s``             median evaluation latency: spawn -> exit with outputs
                       written, or submit -> a readable ``completed`` record
``runs_per_s``         evaluations completed per second
``peak_rss_mb``        peak RSS of the measured process (median over passes,
                       or over the servers of service_mixed)
``success_rate``       1 - failed / attempted operations (evaluations, reads,
                       output checks); never 0 unless everything fails
``api_read_p50_ms``    median read latency: after each CLI pass, ten
                       read-backs of the recorded run through the history
                       store calls the service's read routes make (list runs,
                       fetch the latest, rank tools), each timed as one read;
                       for the service, the read that follows each run,
                       rotating over three routes (the record polls count
                       in ``wall_s`` and, when stale, in
                       ``service.stale_record_reads``)
``table3_error``       mean |ln(simulated/paper)| over Table 3's 64 cells,
                       read from tpl_sweep's own samples where it has them
                       and from ``measure_sendrecv`` otherwise (the 0 KB row)
``table3_out_of_band`` Table 3 cells outside 0.8-1.25x

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` half the time runs untraced and half traced, and it
carries the per-layer metrics of ``tracing.LAYER_METRICS``: the traced
half's layers, ``trace.overhead_ratio`` (traced over untraced median
latency) and the untraced half's 90th-percentile latencies
``tail.run_latency_p90_s`` and ``tail.api_read_p90_ms``.  The tails carry
no bound: on a 2-CPU host whose speed drifts they move by up to a fifth
from run to run.  The line before it is the run's metadata
(python, numpy, nproc, git SHA, input fingerprint).  Per-run details,
the Table 3 cells and the Chrome trace land in ``.perfbench/results/``.

Seed ``HELD_OUT_SEED`` was never used while the benchmark was tuned:
keep it for confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
HELD_OUT_SEED = 7919

#: End-to-end metrics: (name, unit).  Every workload reports every one.
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("success_rate", "ratio"), ("api_read_p50_ms", "ms"),
    ("table3_error", "ratio"), ("table3_out_of_band", "count"),
]

#: Read-backs of the recorded run after each CLI pass.
READS_PER_PASS = 10
#: A pass or a service run not finished within this many seconds fails.
RUN_BOUND_S = 60.0
#: How many analytic answers tpl_sweep re-runs on the event kernel.
ANALYTIC_RECHECKS = 24
#: Server start-ups per service run besides those of the load sessions,
#: so setup_s is a median of about nine.
SETUP_PROBES = 5
#: Timed runs each server serves before a fresh one replaces it.  The
#: server keeps every run in its stores and memory, so without a fixed
#: count its list reads and peak RSS would grow with its own throughput.
RUNS_PER_SERVER = 100
#: Closed-loop service users, each with one run in flight.  One: the
#: server simulates under one GIL, so a second user adds no throughput,
#: and each of its reads lands either beside the other user's simulation
#: (waiting out the GIL, ~6 ms) or beside an idle server (~1.5 ms); how
#: the two users' runs fall into step differs from run to run, and the
#: medians flipped between those modes.
USERS = 1


def percentile(values, fraction):
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Context(object):
    """One benchmark run: its seed, scratch space and operation tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
        self.scratch = os.path.join(WORK, "tmp", "%s-%d" % (self.tag, os.getpid()))
        self.results = os.path.join(WORK, "results")
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._dirs = 0
        self._lock = threading.Lock()
        os.makedirs(self.scratch)
        os.makedirs(self.results, exist_ok=True)

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, str(self._dirs))
        os.makedirs(path)
        return path

    def tally(self, failures) -> None:
        """Count one attempted operation; it failed if ``failures`` is not empty."""
        with self._lock:
            self.attempted += 1
            self.failed += bool(failures)
            self.failures.extend(failures)


# -- child processes ----------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(mode: str, report: str, args, chrome=None, stdout=subprocess.DEVNULL):
    command = [sys.executable, os.path.join(HERE, "child.py"), mode, report]
    if chrome is not None:
        command += ["--trace", chrome]
    return subprocess.Popen(command + ["--"] + list(args), cwd=ROOT, env=child_env(),
                            stdout=stdout, stderr=subprocess.DEVNULL)


def reap(process, timeout: float):
    """Wait for ``process`` (killed past ``timeout``): (exit code, peak RSS MB)."""
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:  # interrupted: never leave the child running
        process.kill()
        process.wait()
        raise
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024.0


def read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


# -- the CLI workloads (grid_cold, tpl_sweep) ----------------------------

def history_reads(ctx: Context, history_db: str):
    """READS_PER_PASS timed read-backs of the pass's recorded run (ms each).

    One read-back makes the library calls behind the service's read
    routes: list runs, fetch the latest run, rank tools.
    """
    from repro.history import HistoryStore, leaderboards

    timings = []
    with HistoryStore(history_db) as history:
        for index in range(READS_PER_PASS):
            start = time.perf_counter()
            try:
                found = (history.list_runs(), history.get(history.resolve("latest")),
                         leaderboards(history))
            except Exception as error:  # noqa: BLE001 - a failed read is counted
                ctx.tally(["history read %d: %s" % (index, error)])
                continue
            timings.append((time.perf_counter() - start) * 1e3)
            ctx.tally([] if all(found) else ["history read %d came back empty" % index])
    return timings


def cli_passes(ctx: Context, seconds: float, traced: bool, first_chrome=None) -> dict:
    """Run fresh-process passes of the workload until ``seconds`` pass."""
    from checks import compare_samples, samples_by_job
    from specs import grid_argv

    walls, setups, rss, imports, reads, totals = [], [], [], [], [], []
    reference = None
    first_export = None
    deadline = time.monotonic() + seconds
    # Start a pass only if it should end by about half a pass past the deadline.
    while not walls or time.monotonic() + walls[-1] / 2 < deadline:
        scratch = ctx.fresh_dir()
        export = os.path.join(scratch, "out.json")
        history_db = os.path.join(scratch, "history.db")
        report = os.path.join(scratch, "report.json")
        if ctx.workload == "grid_cold":
            mode, args = "cli", grid_argv(ctx.seed, export, history_db)
        else:
            mode, args = "sweep", [str(ctx.seed), export, history_db]
        chrome = None
        if traced:
            chrome = first_chrome if (first_chrome and not totals) else "-"
        start = time.monotonic()
        process = spawn(mode, report, args, chrome)
        code, peak = reap(process, RUN_BOUND_S)
        wall = time.monotonic() - start
        failures = []
        if code != 0 or not os.path.exists(export):
            failures.append("pass %d exited %s" % (len(walls), code))
        else:
            data = read_json(report)
            exported = read_json(export)
            if reference is None:
                reference, first_export = samples_by_job(exported), exported
            else:
                failures += compare_samples(reference, exported, "pass %d" % len(walls))
            walls.append(wall)
            setups.append(data["ready"] - start)
            rss.append(peak)
            imports.append(data["import_s"])
            if traced:
                totals.append(data["totals"])
            reads += history_reads(ctx, history_db)
        ctx.tally(failures)
        shutil.rmtree(scratch, ignore_errors=True)
        if failures and not walls:
            break
    return {"walls": walls, "setups": setups, "rss": rss, "imports": imports,
            "reads": reads, "totals": totals, "export": first_export}


# -- the service workload -----------------------------------------------

def http_json(port: int, method: str, path: str, user=None, payload=None):
    """One request on its own connection: (status, parsed body or None)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=RUN_BOUND_S)
    headers = {"Accept": "application/json"}
    if user is not None:
        headers["X-User"] = user
    body = None
    if payload is not None:
        body = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        try:
            return response.status, json.loads(raw.decode())
        except ValueError:
            return response.status, None
    finally:
        connection.close()


def start_server(ctx: Context, chrome=None):
    """Spawn ``repro serve`` and wait for its first healthy reply.

    Returns (process, port, setup seconds, report path).
    """
    scratch = ctx.fresh_dir()
    report = os.path.join(scratch, "report.json")
    args = ["serve", "--port", "0", "--cache-dir", os.path.join(scratch, "cache"),
            "--db", os.path.join(scratch, "runs.db"),
            "--history-db", os.path.join(scratch, "history.db")]
    start = time.monotonic()
    process = spawn("cli", report, args, chrome, stdout=subprocess.PIPE)
    port = None
    deadline = start + RUN_BOUND_S
    try:
        while port is None:
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start")
            ready, _, _ = select.select([process.stdout], [], [], 0.05)
            if ready:
                line = process.stdout.readline().decode()
                if not line:
                    raise RuntimeError("server exited before serving")
                if line.startswith("serving on http://"):
                    port = int(line.strip().rsplit(":", 1)[1])
        while True:
            try:
                status, _ = http_json(port, "GET", "/api/health")
            except OSError:
                status = None
            if status == 200:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /api/health")
            time.sleep(0.002)
    except BaseException:
        stop_server(process)
        raise
    return process, port, time.monotonic() - start, report


def stop_server(process) -> float:
    """SIGTERM (graceful shutdown), reap; the server's peak RSS in MB."""
    process.send_signal(signal.SIGTERM)
    _, peak = reap(process, RUN_BOUND_S)
    process.stdout.close()
    return peak


class ServiceLoad(object):
    """USERS closed-loop users against a series of servers; what they observed."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.port = None
        self.served = 0
        self.latencies, self.reads = [], []
        self.submit_ms, self.first_event_ms, self.queue_wait_ms = [], [], []
        self.cache_hit_ratios = []
        self.stale_reads = 0
        self.first_values = {}
        self.timed = False
        self._lock = threading.Lock()

    def serve(self, port: int) -> float:
        """Warm up a fresh server untimed, then time RUNS_PER_SERVER runs per user.

        Returns the timed phase's duration.
        """
        from specs import ServiceSpecs

        self.port = port
        users = [("user%d" % index, ServiceSpecs(self.ctx.seed, index))
                 for index in range(USERS)]
        # One pass through every user's deck fills the disk cache with each
        # shared seed and lets the server finish its lazy imports, so the
        # timed runs all see the same steady mix of hits and misses.
        warm = users[0][1].deck_size
        self.timed = False
        self._phase(users, warm)
        self.timed = True
        start = time.monotonic()
        self._phase(users, warm + RUNS_PER_SERVER)
        return time.monotonic() - start

    def _phase(self, users, total: int) -> None:
        """Each user, on its own thread, runs until it has submitted ``total``."""
        threads = [threading.Thread(target=self._user, args=(user, specs, total))
                   for user, specs in users]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _user(self, user: str, specs, total: int) -> None:
        while specs.submitted < total:
            spec = specs.next()
            failures = []
            try:
                run_id = self._run(user, spec, failures)
            except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
                failures.append("%s run: %r" % (user, error))
                run_id = None
            self.ctx.tally(failures)
            if run_id is None:
                continue
            paths = ("/api/runs?user=%s" % user, "/api/runs/%s" % run_id,
                     "/api/history/leaderboard")
            path = paths[(specs.submitted - 1) % len(paths)]
            start = time.perf_counter()
            try:
                status, _ = http_json(self.port, "GET", path, user)
            except (OSError, http.client.HTTPException) as error:
                status = repr(error)
            elapsed = (time.perf_counter() - start) * 1e3
            if status == 200:
                if self.timed:
                    with self._lock:
                        self.reads.append(elapsed)
                self.ctx.tally([])
            else:
                self.ctx.tally(["GET %s -> %s" % (path, status)])

    def _run(self, user: str, spec, failures):
        """Submit, follow SSE, poll until terminal; the run id."""
        from checks import sample_key

        start = time.monotonic()
        status, body = http_json(self.port, "POST", "/api/runs", user, {"spec": spec.to_dict()})
        submitted = time.monotonic()
        if status not in (200, 202):
            failures.append("submit -> %s %s" % (status, body))
            return None
        run_id = body["run_id"]
        first_event = self._follow(run_id, user)
        stale = 0
        while True:
            status, record = http_json(self.port, "GET", "/api/runs/%s" % run_id, user)
            if status != 200:
                failures.append("GET run %s -> %s" % (run_id, status))
                return None
            if record["state"] in ("completed", "cancelled", "failed"):
                break
            stale += 1
            if time.monotonic() - start > RUN_BOUND_S:
                failures.append("run %s not terminal within %.0f s" % (run_id, RUN_BOUND_S))
                return None
        done = time.monotonic()
        samples = (record.get("result") or {}).get("samples", [])
        if record["state"] != "completed" or len(samples) != spec.job_count():
            failures.append("run %s ended %s with %d/%d samples"
                            % (run_id, record["state"], len(samples), spec.job_count()))
        with self._lock:
            for sample in samples:
                key = sample_key(sample)
                first = self.first_values.setdefault(key, sample["seconds"])
                if first != sample["seconds"]:
                    failures.append("run %s: %s served %r, first simulated %r"
                                    % (run_id, key, sample["seconds"], first))
            self.served += 1
            if not self.timed:
                return run_id
            self.latencies.append(done - start)
            self.submit_ms.append((submitted - start) * 1e3)
            self.first_event_ms.append((first_event - start) * 1e3)
            self.queue_wait_ms.append((record["started_at"] - record["created_at"]) * 1e3)
            self.cache_hit_ratios.append(record["cache_hits"] / float(spec.job_count()))
            self.stale_reads += stale
        return run_id

    def _follow(self, run_id: str, user: str) -> float:
        """Read the run's SSE stream to ``run_completed``; first-event time."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=RUN_BOUND_S)
        first = None
        try:
            connection.request("GET", "/api/runs/%s/events" % run_id, headers={"X-User": user})
            response = connection.getresponse()
            if response.status != 200:
                raise ValueError("events -> %d" % response.status)
            while True:
                line = response.readline()
                if not line:
                    raise ValueError("event stream of %s ended early" % run_id)
                if not line.startswith(b"data:"):
                    continue
                if first is None:
                    first = time.monotonic()
                if json.loads(line[5:].decode()).get("type") == "run_completed":
                    return first
        finally:
            connection.close()


def service_sessions(ctx: Context, seconds: float, chrome=None) -> dict:
    """Fresh servers one after another, each serving ServiceLoad.serve's runs.

    A server starts only if it should end by about half a session past
    ``seconds`` of timed load.  With ``chrome``, every server is traced
    and the first writes its spans there.
    """
    load = ServiceLoad(ctx)
    timed, setups, peaks, reports = [], [], [], []
    while not timed or sum(timed) + timed[-1] / 2 < seconds:
        trace = None if chrome is None else (chrome if not timed else "-")
        process, port, setup, report = start_server(ctx, trace)
        try:
            timed.append(load.serve(port))
        finally:
            peaks.append(stop_server(process))
        data = read_json(report)
        ctx.tally([] if data["exit"] == 0 else ["server exited %s" % data["exit"]])
        setups.append(setup)
        reports.append(data)
    return {"load": load, "elapsed": sum(timed), "setups": setups, "rss": peaks,
            "reports": reports}


# -- metrics --------------------------------------------------------------

def fidelity(export=None) -> dict:
    from checks import table3_cells, table3_fidelity

    error, outside, rows = table3_fidelity(table3_cells(export))
    return {"table3_error": error, "table3_out_of_band": outside, "rows": rows}


def end_to_end(ctx: Context):
    """The end-to-end metrics (tracing off) and the run's details."""
    import checks

    details = {}
    if ctx.workload == "service_mixed":
        setups = []
        for _ in range(SETUP_PROBES):
            process, _, setup, _ = start_server(ctx)
            stop_server(process)
            setups.append(setup)
        sessions = service_sessions(ctx, ctx.seconds)
        load = sessions["load"]
        setups += sessions["setups"]
        walls, reads = load.latencies, load.reads
        values = {
            "setup_s": statistics.median(setups),
            "runs_per_s": len(walls) / sessions["elapsed"],
            "peak_rss_mb": statistics.median(sessions["rss"]),
        }
        details["servers"] = len(sessions["setups"])
        table3 = fidelity()
    else:
        passes = cli_passes(ctx, ctx.seconds, traced=False)
        walls, reads = passes["walls"], passes["reads"]
        values = {
            "setup_s": statistics.median(passes["setups"]),
            "runs_per_s": len(walls) / sum(walls),
            "peak_rss_mb": statistics.median(passes["rss"]),
        }
        export = None
        if ctx.workload == "grid_cold":
            ctx.tally(checks.golden(ROOT))
        else:
            export = passes["export"]
            checked, failures = checks.analytic_recheck(export, ctx.seed, ANALYTIC_RECHECKS)
            ctx.tally(failures)
            details["analytic_rechecked"] = checked
        table3 = fidelity(export)
        details["pass_walls_s"] = walls
    values.update({
        "wall_s": statistics.median(walls),
        "api_read_p50_ms": statistics.median(reads),
        "table3_error": table3["table3_error"],
        "table3_out_of_band": table3["table3_out_of_band"],
    })
    values["success_rate"] = 1.0 - ctx.failed / float(max(ctx.attempted, 1))
    details["evaluations"] = len(walls)
    details["reads"] = len(reads)
    details["table3_cells"] = table3["rows"]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, details


def per_layer(ctx: Context):
    """Half the time untraced, half traced; layer metrics of the traced half."""
    import tracing

    half = ctx.seconds / 2.0
    chrome = os.path.join(ctx.results, ctx.tag + ".trace.json")
    service = {}
    if ctx.workload == "service_mixed":
        plain = service_sessions(ctx, half)
        traced = service_sessions(ctx, half, chrome)
        load = traced["load"]
        walls, plain_walls, plain_reads = load.latencies, plain["load"].latencies, plain["load"].reads
        totals = [report["totals"] for report in traced["reports"]]
        imports = [report["import_s"] for report in traced["reports"]]
        # The servers' layer totals cover their warm-up runs too.
        served = load.served
        service = {
            "service.submit_ms": statistics.median(load.submit_ms),
            "service.first_event_ms": statistics.median(load.first_event_ms),
            "service.queue_wait_ms": statistics.median(load.queue_wait_ms),
            "service.stale_record_reads": load.stale_reads / float(len(walls)),
            "service.cache_hit_ratio": statistics.mean(load.cache_hit_ratios),
        }
    else:
        plain = cli_passes(ctx, half, traced=False)
        traced = cli_passes(ctx, half, traced=True, first_chrome=chrome)
        walls, plain_walls, plain_reads = traced["walls"], plain["walls"], plain["reads"]
        totals, imports = traced["totals"], traced["imports"]
        served = len(walls)
    evaluations = len(walls)
    values = tracing.layer_values(totals, served)
    values["import.s"] = statistics.median(imports)
    for name, _, _ in tracing.LAYER_METRICS:
        if name.startswith("service."):
            values[name] = service.get(name, 0.0)
    values["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(plain_walls)
    values["tail.run_latency_p90_s"] = percentile(plain_walls, 0.9)
    values["tail.api_read_p90_ms"] = percentile(plain_reads, 0.9)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracing.LAYER_METRICS}
    return metrics, {"evaluations": evaluations, "chrome_trace": os.path.relpath(chrome, ROOT)}


# -- metadata and main ----------------------------------------------------

def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def inputs_fingerprint(workload: str, seed: int) -> str:
    """A digest of everything the workload feeds repro under ``seed``."""
    import specs

    if workload == "grid_cold":
        text = json.dumps(specs.grid_argv(seed, "OUT", "DB"))
    elif workload == "tpl_sweep":
        text = specs.sweep_spec(seed).to_json()
    else:
        text = "".join(generator.next().to_json()
                       for generator in [specs.ServiceSpecs(seed, user) for user in range(USERS)]
                       for _ in range(64))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def metadata(ctx: Context) -> dict:
    import numpy

    import specs

    return {
        "workload": ctx.workload, "why": specs.WHY[ctx.workload], "seed": ctx.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": ctx.seconds, "trace": int(ctx.trace),
        "inputs_sha": inputs_fingerprint(ctx.workload, ctx.seed),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "git_sha": git_sha(),
    }


def warm_up() -> None:
    """Compile bytecode once, so no timed process pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE], cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=RUN_BOUND_S, check=True)


def main(argv=None) -> int:
    import specs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no repro sources under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        warm_up()
        if ctx.trace:
            metrics, details = per_layer(ctx)
        else:
            metrics, details = end_to_end(ctx)
        meta = metadata(ctx)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    result = {
        "correct": not ctx.failed,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": metrics,
    }
    with open(os.path.join(ctx.results, ctx.tag + ".json"), "w") as handle:
        json.dump({"metadata": meta, "result": result, "details": details,
                   "failures": ctx.failures}, handle, indent=1, sort_keys=True)
    print(json.dumps({"metadata": meta, "failures": ctx.failures[:5]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
