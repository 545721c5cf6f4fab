"""Bench API: scheduler overhead vs. the one-call quickstart, and
the price of streaming.

The plan API adds spec expansion, cache bookkeeping and result
reconstruction around the same simulations; the streaming API (PR 5)
adds a worker thread, per-job event records and progress counters on
top.  Both layers must stay small change next to simulation time:

* the classic assertion — a warm ``Scheduler.run`` re-run (pure
  scheduling, zero simulations) is at least 5x faster than a cold
  one, and
* the streaming assertion — ``start()`` + a fully consumed event
  stream prices within 5% of a blocking ``run()`` on a cold sweep.

Timings are best-of-``REPEATS`` to shrug off scheduler noise.  As a
script this writes ``BENCH_api.json`` (sibling of
``BENCH_kernel.json``, same shape) for ``scripts/bench_report.py``::

    PYTHONPATH=src python benchmarks/bench_api_overhead.py \
        [--output BENCH_api.json] [--no-assert]
"""

import json
import sys
import time

from repro.core.evaluation import evaluate_tools
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec

_TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)

#: Streaming (start + events + result) may cost at most this much
#: over blocking run() on a cold sweep.
MAX_STREAMING_OVERHEAD = 1.05

#: Cold timing repetitions (best-of, to shrug off scheduler noise).
REPEATS = 5


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _best_of(repeats, func):
    return min(_timed(func)[1] for _ in range(repeats))


def _run_blocking(spec):
    with Scheduler() as scheduler:
        return scheduler.run(spec)


def _run_streaming(spec):
    with Scheduler() as scheduler:
        handle = scheduler.start(spec)
        events = sum(1 for _ in handle.events())
        result = handle.result()
        assert events == 2 * spec.job_count() + 1
        return result


def measure_streaming_overhead(repeats=REPEATS):
    """Best-of cold timings: blocking run() vs start()+events+result()."""
    spec = EvaluationSpec(**_TINY)
    # Interleaved warm-up so neither variant benefits from import costs.
    _run_blocking(spec)
    blocking_s = _best_of(repeats, lambda: _run_blocking(spec))
    streaming_s = _best_of(repeats, lambda: _run_streaming(spec))
    return {
        "blocking_run_seconds": blocking_s,
        "streaming_run_seconds": streaming_s,
        "overhead_ratio": streaming_s / blocking_s,
    }


def test_scheduler_overhead(benchmark):
    from conftest import run_once

    _, direct_s = _timed(lambda: evaluate_tools("sun-ethernet", **_TINY))

    spec = EvaluationSpec(**_TINY)
    scheduler = Scheduler()
    _, cold_s = _timed(lambda: scheduler.run(spec))
    # The benchmarked quantity: a fully cached re-run of the spec.
    warm = run_once(benchmark, lambda: _timed(lambda: scheduler.run(spec)))
    warm_s = warm[1]

    print()
    print("evaluate_tools       (cold): %8.1f ms" % (direct_s * 1e3))
    print("Scheduler.run        (cold): %8.1f ms" % (cold_s * 1e3))
    print("Scheduler.run        (warm): %8.1f ms  <- scheduling overhead" % (warm_s * 1e3))

    assert scheduler.simulations_run == spec.job_count()
    assert warm_s < cold_s / 5.0


def test_streaming_overhead():
    """start() + a fully drained event stream must price within
    MAX_STREAMING_OVERHEAD of blocking run() on a cold sweep.

    Wall-clock ratios on shared CI hardware are noisy even as
    best-of-N minima, so a miss re-measures once with doubled repeats
    before failing — a real regression fails twice, a neighbor burst
    does not.
    """
    metrics = measure_streaming_overhead()
    if metrics["overhead_ratio"] >= MAX_STREAMING_OVERHEAD:
        metrics = measure_streaming_overhead(repeats=2 * REPEATS)

    print()
    print("blocking  run (cold, best of %d): %8.1f ms"
          % (REPEATS, metrics["blocking_run_seconds"] * 1e3))
    print("streaming run (cold, best of %d): %8.1f ms  (%.3fx)"
          % (REPEATS, metrics["streaming_run_seconds"] * 1e3,
             metrics["overhead_ratio"]))

    assert metrics["overhead_ratio"] < MAX_STREAMING_OVERHEAD


def run_benchmarks():
    import platform as platform_mod

    return {
        "benchmark": "api",
        "python": sys.version.split()[0],
        "machine": platform_mod.machine(),
        "metrics": {"streaming": measure_streaming_overhead()},
    }


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_api.json",
                        help="where to write the metrics (default ./BENCH_api.json)")
    # argparse re-interpolates help strings, so the literal percent
    # sign must still be doubled *after* our own formatting.
    parser.add_argument("--no-assert", action="store_true",
                        help="record metrics without enforcing the <%g%%%% "
                             "streaming-overhead bar"
                             % ((MAX_STREAMING_OVERHEAD - 1) * 100))
    args = parser.parse_args(argv)

    report = run_benchmarks()
    streaming = report["metrics"]["streaming"]
    print("blocking  run (cold): %8.1f ms" % (streaming["blocking_run_seconds"] * 1e3))
    print("streaming run (cold): %8.1f ms" % (streaming["streaming_run_seconds"] * 1e3))
    print("streaming overhead:   %8.3fx" % streaming["overhead_ratio"])

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)

    if not args.no_assert and streaming["overhead_ratio"] >= MAX_STREAMING_OVERHEAD:
        print("FAIL: streaming overhead %.3fx exceeds the %.2fx bar"
              % (streaming["overhead_ratio"], MAX_STREAMING_OVERHEAD))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
