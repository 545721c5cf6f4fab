"""Span recorder for the traced benchmark run, wrapped around repro's layers.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
public functions and methods *where the caller looks them up* (for
example ``repro.apps.jpeg.parallel.compress_strip``, which the JPEG
application imported by name) with wrappers that record a span per call,
or bump a counter where a call is too frequent for a span.

A span is ``(id, parent, name, thread, start, end, self)``.  Spans nest
per thread: jobs run on the scheduler's ``RunHandle`` worker thread, so
the parent of a job span is the ``scheduler.drive`` span on that thread,
never the main thread's wait.  A span's self time is its duration minus
the durations of its direct children.  Spans stay in memory until
:meth:`Tracer.write_chrome_trace` writes them as Chrome trace-event JSON,
which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

_clock = time.perf_counter

#: Layer metrics the traced run reports, each with its unit and which
#: direction is better.  Times are seconds per evaluation, counts are
#: per evaluation (one ``repro evaluate`` pass, one sweep or one
#: service run), ratios are over the whole traced run.  The ``tail.``
#: latencies come from the run's untraced half (see ``run.py``).
LAYER_METRICS = [
    ("import.s", "s", "lower"),
    ("spec.expand_s", "s", "lower"),
    ("spec.jobs", "count", "lower"),
    ("cache.probe_s", "s", "lower"),
    ("cache.store_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("scheduler.self_s", "s", "lower"),
    ("executor.job_s", "s", "lower"),
    ("executor.jobs", "count", "lower"),
    ("executor.retries", "count", "lower"),
    ("analytic.compute_s", "s", "lower"),
    ("analytic.jobs", "count", "higher"),
    ("analytic.admit_ratio", "ratio", "higher"),
    ("analytic.curve_hit_ratio", "ratio", "higher"),
    ("measure.sendrecv_s", "s", "lower"),
    ("measure.sendrecv.calls", "count", "lower"),
    ("measure.broadcast_s", "s", "lower"),
    ("measure.broadcast.calls", "count", "lower"),
    ("measure.ring_s", "s", "lower"),
    ("measure.ring.calls", "count", "lower"),
    ("measure.global_sum_s", "s", "lower"),
    ("measure.global_sum.calls", "count", "lower"),
    ("measure.application_s", "s", "lower"),
    ("measure.application.calls", "count", "lower"),
    ("hardware.build_platform_s", "s", "lower"),
    ("hardware.use_cpu.calls", "count", "lower"),
    ("tools.run_spmd_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.resource_requests", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.wire_bytes", "bytes", "lower"),
    ("apps.make_workload_s", "s", "lower"),
    ("apps.jpeg_s", "s", "lower"),
    ("apps.psrs_s", "s", "lower"),
    ("apps.fft2d_s", "s", "lower"),
    ("apps.montecarlo_s", "s", "lower"),
    ("apps.job_share", "ratio", "lower"),
    ("apps.jpeg.compress_strip_s", "s", "lower"),
    ("apps.jpeg.compress_strip.calls", "count", "lower"),
    ("apps.jpeg.compress_strip.distinct_ratio", "ratio", "higher"),
    ("results.score_s", "s", "lower"),
    ("results.export_s", "s", "lower"),
    ("history.record_s", "s", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.first_event_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.stale_record_reads", "count", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("tail.run_latency_p90_s", "s", "lower"),
    ("tail.api_read_p90_ms", "ms", "lower"),
]

MEASURE_KINDS = ("sendrecv", "broadcast", "ring", "global_sum", "application")
APP_NAMES = ("jpeg", "psrs", "fft2d", "montecarlo")


class Tracer(object):
    """Thread-aware span and counter recorder (one per process)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread_counters: List[Counter] = []
        self._thread_sets: List[Dict[str, set]] = []
        self.spans: List[tuple] = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.counts
        except AttributeError:
            local.stack = []
            local.counts = Counter()
            local.sets = defaultdict(set)
            local.platforms = []
            with self._lock:
                self._thread_counters.append(local.counts)
                self._thread_sets.append(local.sets)
            return local.stack, local.counts

    def count(self, name: str, amount: int = 1) -> None:
        self._state()[1][name] += amount

    def distinct(self, name: str, value) -> None:
        self._state()
        self._local.sets[name].add(value)

    def pending_platforms(self) -> list:
        self._state()
        return self._local.platforms

    # -- spans -------------------------------------------------------------

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        stack = self._state()[0]
        entry = [next(self._ids), name, _clock(), 0.0]
        stack.append(entry)
        try:
            return function(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            span_id, _, start, children = entry
            duration = end - start
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[3] += duration
            self.spans.append((
                span_id, parent[0] if parent is not None else 0, name,
                threading.get_ident(), start, end, duration - children,
            ))

    def timed_iter(self, name: str, iterable):
        """Yield from ``iterable``, charging each ``next`` to ``name``.

        Cheaper than a span per item: the time is summed into a counter
        and into the enclosing span's children, so self times stay right.
        """
        iterator = iter(iterable)
        while True:
            start = _clock()
            try:
                item = next(iterator)
            except StopIteration:
                self._charge(name, _clock() - start)
                return
            self._charge(name, _clock() - start)
            self.count(name + ".items")
            yield item

    def _charge(self, name: str, seconds: float) -> None:
        stack, counts = self._state()
        counts[name + ".us"] += int(seconds * 1e6)
        if stack:
            stack[-1][3] += seconds

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Inclusive and self seconds per span name, and every counter.

        Inclusive time counts a span only when no span of the same name
        is open around it on its thread, so nested calls (``to_json``
        calling ``to_dict``) are not counted twice.
        """
        by_id = {span[0]: span for span in self.spans}
        inclusive: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span_id, parent, name, _, start, end, own in self.spans:
            calls[name] += 1
            self_time[name] += own
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                inclusive[name] += end - start
        counters: Counter = Counter()
        distinct: Dict[str, set] = defaultdict(set)
        with self._lock:
            for counts in self._thread_counters:
                counters.update(counts)
            for sets in self._thread_sets:
                for key, values in sets.items():
                    distinct[key] |= values
        return {
            "inclusive": dict(inclusive),
            "self": dict(self_time),
            "calls": dict(calls),
            "counters": dict(counters),
            "distinct": {key: len(values) for key, values in distinct.items()},
        }

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Every span as a Chrome trace-event ``X`` (complete) event."""
        pid = os.getpid()
        events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                   "args": {"name": process_name}}]
        for span_id, parent, name, tid, start, end, own in self.spans:
            events.append({
                "ph": "X", "name": name, "cat": name.split(".")[0],
                "pid": pid, "tid": tid, "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "self_us": own * 1e6},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _wrap_function(owner, attribute: str, wrapper_factory) -> None:
    original = getattr(owner, attribute)
    wrapper = wrapper_factory(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attribute, wrapper)


def _spanned(tracer: Tracer, name: str):
    def factory(original):
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)
        return wrapper
    return factory


def install(tracer: Tracer) -> None:
    """Wrap repro's layer boundaries so every call records into ``tracer``."""
    import repro.analytic.curves as curves
    import repro.analytic.engine as analytic_engine
    import repro.apps.base as apps_base
    import repro.apps.jpeg.parallel as jpeg_parallel
    import repro.apps.suite  # noqa: F401 - registers every application class
    import repro.core.cache as cache
    import repro.core.executors as executors
    import repro.core.measurements as measurements
    import repro.core.results as results
    import repro.core.scheduler as scheduler
    import repro.core.spec as spec
    import repro.hardware.node as node
    import repro.history.store as history_store
    import repro.sim.kernel as kernel
    import repro.sim.resources as resources
    import repro.tools.base as tools_base

    # core.spec: expansion is lazy, so time each item as it is pulled.
    def expand_factory(original):
        def iter_jobs(self):
            return tracer.timed_iter("spec.expand", original(self))
        return iter_jobs
    _wrap_function(spec.EvaluationSpec, "iter_jobs", expand_factory)

    # core.cache: bulk probes (the scheduler's path), single probes, stores.
    def probe_factory(original):
        def get_many(self, jobs):
            jobs = list(jobs)
            found = tracer.call("cache.probe", original, self, jobs)
            tracer.count("cache.probed", len(set(jobs)))
            tracer.count("cache.hits", len(found))
            return found
        return get_many
    _wrap_function(cache.ResultCache, "get_many", probe_factory)
    _wrap_function(cache.ResultCache, "lookup", _spanned(tracer, "cache.probe"))
    _wrap_function(cache.ResultCache, "store", _spanned(tracer, "cache.store"))

    # core.scheduler: the worker-thread drive loop is the root of every
    # job span, so its self time is the scheduler's own overhead.
    _wrap_function(scheduler.Scheduler, "_drive", _spanned(tracer, "scheduler.drive"))

    # core.executors: every executed (not cached, not analytic) job.
    def job_factory(original):
        def execute_job_instrumented(job, retries=1):
            outcome = tracer.call("executor.job", original, job, retries)
            tracer.count("executor.retries", outcome.attempts - 1)
            return outcome
        return execute_job_instrumented
    _wrap_function(executors, "execute_job_instrumented", job_factory)

    # analytic: admission, batch compute, curve-point reuse.
    def eligible_factory(original):
        def eligible(self, job):
            admitted = original(self, job)
            tracer.count("analytic.probed")
            if admitted:
                tracer.count("analytic.admitted")
            return admitted
        return eligible
    _wrap_function(analytic_engine.AnalyticEngine, "eligible", eligible_factory)

    def compute_factory(original):
        def compute_many(self, jobs):
            jobs = list(jobs)
            tracer.count("analytic.jobs", len(jobs))
            return tracer.call("analytic.compute", original, self, jobs)
        return compute_many
    _wrap_function(analytic_engine.AnalyticEngine, "compute_many", compute_factory)

    def curve_factory(original):
        def lookup(self, key, sizes):
            known, missing = original(self, key, sizes)
            tracer.count("analytic.curve_points_known", len(known))
            tracer.count("analytic.curve_points_missing", len(missing))
            return known, missing
        return lookup
    _wrap_function(curves.CurveCache, "lookup", curve_factory)

    # core.measurements (+ net stats of each platform the job built).
    def measure_factory(kind):
        def factory(original):
            def measure(*args, **kwargs):
                pending = tracer.pending_platforms()
                del pending[:]
                try:
                    return tracer.call("measure." + kind, original, *args, **kwargs)
                finally:
                    for platform in pending:
                        stats = platform.network.stats
                        tracer.count("net.messages", stats.messages)
                        tracer.count("net.wire_bytes", stats.wire_bytes)
                    del pending[:]
            return measure
        return factory
    for kind in MEASURE_KINDS:
        _wrap_function(measurements, "measure_" + kind, measure_factory(kind))

    # hardware: platform construction (looked up in measurements) and CPU use.
    def build_factory(original):
        def build_platform(*args, **kwargs):
            platform = tracer.call("hardware.build_platform", original, *args, **kwargs)
            tracer.pending_platforms().append(platform)
            return platform
        return build_platform
    _wrap_function(measurements, "build_platform", build_factory)

    def use_cpu_factory(original):
        def use_cpu(self, seconds):
            tracer.count("hardware.use_cpu.calls")
            return original(self, seconds)
        return use_cpu
    _wrap_function(node.Node, "use_cpu", use_cpu_factory)

    # tools and sim.
    _wrap_function(tools_base.ToolRuntime, "run_spmd", _spanned(tracer, "tools.run_spmd"))
    _wrap_function(kernel.Environment, "run", _spanned(tracer, "sim.run"))

    def request_factory(original):
        def request(self):
            tracer.count("sim.resource_requests")
            return original(self)
        return request
    _wrap_function(resources.Resource, "request", request_factory)

    # apps: each application's run and workload build, and the JPEG codec.
    def app_run_factory(original):
        def run(self, *args, **kwargs):
            return tracer.call("apps." + self.name, original, self, *args, **kwargs)
        return run
    _wrap_function(apps_base.ParallelApplication, "run", app_run_factory)
    pending = list(apps_base.ParallelApplication.__subclasses__())
    while pending:
        app_class = pending.pop()
        pending.extend(app_class.__subclasses__())
        if "make_workload" in vars(app_class):
            _wrap_function(app_class, "make_workload", _spanned(tracer, "apps.make_workload"))

    def strip_factory(original):
        def compress_strip(strip, quality=75):
            digest = hashlib.blake2b(strip.tobytes(), digest_size=16)
            digest.update(repr((strip.shape, str(strip.dtype), quality)).encode())
            tracer.distinct("apps.jpeg.compress_strip", digest.digest())
            return tracer.call("apps.jpeg.compress_strip", original, strip, quality)
        return compress_strip
    _wrap_function(jpeg_parallel, "compress_strip", strip_factory)

    # core.results: scoring and export.
    for attribute in ("reports", "seed_statistics"):
        _wrap_function(results.ResultSet, attribute, _spanned(tracer, "results.score"))
    for attribute in ("to_dict", "to_json"):
        _wrap_function(results.ResultSet, attribute, _spanned(tracer, "results.export"))

    # history.
    _wrap_function(history_store.HistoryStore, "record_result",
                   _spanned(tracer, "history.record"))


def layer_values(totals_list: List[dict], evaluations: int) -> Dict[str, float]:
    """Per-evaluation layer metrics from the totals of traced processes."""
    inclusive: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    distinct: Counter = Counter()
    for totals in totals_list:
        inclusive.update(totals["inclusive"])
        own.update(totals["self"])
        calls.update(totals["calls"])
        counters.update(totals["counters"])
        distinct.update(totals["distinct"])
    evaluations = max(evaluations, 1)

    def per(value) -> float:
        return value / float(evaluations)

    def ratio(part, whole) -> float:
        return part / float(whole) if whole else 0.0

    known = counters["analytic.curve_points_known"]
    app_seconds = sum(inclusive["apps." + name] for name in APP_NAMES)
    values = {
        "spec.expand_s": per(counters["spec.expand.us"] / 1e6),
        "spec.jobs": per(counters["spec.expand.items"]),
        "cache.probe_s": per(inclusive["cache.probe"]),
        "cache.store_s": per(inclusive["cache.store"]),
        "cache.hit_ratio": ratio(counters["cache.hits"], counters["cache.probed"]),
        "scheduler.self_s": per(own["scheduler.drive"]),
        "executor.job_s": per(inclusive["executor.job"]),
        "executor.jobs": per(calls["executor.job"]),
        "executor.retries": per(counters["executor.retries"]),
        "analytic.compute_s": per(inclusive["analytic.compute"]),
        "analytic.jobs": per(counters["analytic.jobs"]),
        "analytic.admit_ratio": ratio(counters["analytic.admitted"], counters["analytic.probed"]),
        "analytic.curve_hit_ratio": ratio(
            known, known + counters["analytic.curve_points_missing"]),
        "hardware.build_platform_s": per(inclusive["hardware.build_platform"]),
        "hardware.use_cpu.calls": per(counters["hardware.use_cpu.calls"]),
        "tools.run_spmd_s": per(inclusive["tools.run_spmd"]),
        "sim.run_s": per(inclusive["sim.run"]),
        "sim.resource_requests": per(counters["sim.resource_requests"]),
        "net.messages": per(counters["net.messages"]),
        "net.wire_bytes": per(counters["net.wire_bytes"]),
        "apps.make_workload_s": per(inclusive["apps.make_workload"]),
        "apps.job_share": ratio(app_seconds, inclusive["executor.job"]),
        "apps.jpeg.compress_strip_s": per(inclusive["apps.jpeg.compress_strip"]),
        "apps.jpeg.compress_strip.calls": per(calls["apps.jpeg.compress_strip"]),
        "apps.jpeg.compress_strip.distinct_ratio": ratio(
            distinct["apps.jpeg.compress_strip"], calls["apps.jpeg.compress_strip"]),
        "results.score_s": per(inclusive["results.score"]),
        "results.export_s": per(own["results.export"]),
        "history.record_s": per(inclusive["history.record"]),
    }
    for kind in MEASURE_KINDS:
        values["measure.%s_s" % kind] = per(inclusive["measure." + kind])
        values["measure.%s.calls" % kind] = per(calls["measure." + kind])
    for name in APP_NAMES:
        values["apps.%s_s" % name] = per(inclusive["apps." + name])
    return values
