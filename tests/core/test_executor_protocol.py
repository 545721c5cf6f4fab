"""Executor protocol conformance, shared across every backend.

One parametrized suite pins the contract of
``Executor.submit(jobs, retries) -> Iterator[JobOutcome]`` — ordering,
laziness, telemetry fields, retry semantics, lifecycle, recovery —
against the in-process backends in ``BACKENDS``.
``tests/distributed/test_remote_protocol.py`` runs the same suite,
unmodified, against the remote backend.
"""

import multiprocessing

import pytest

from repro.core.jobs import execute_job
from repro.core.executors import Executor, ProcessPoolExecutor, SerialExecutor
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.errors import EvaluationError

_TINY = dict(
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)


def tiny_spec(**overrides):
    kwargs = dict(_TINY)
    kwargs.update(overrides)
    return EvaluationSpec(**kwargs)


BACKENDS = {
    "serial": lambda: SerialExecutor(),
    "process": lambda: ProcessPoolExecutor(max_workers=2),
    # `--jobs 1 --backend process`: one worker, so the smallest
    # admission window a pool can have.
    "process-single": lambda: ProcessPoolExecutor(max_workers=1),
}


@pytest.fixture(params=sorted(BACKENDS))
def executor(request):
    instance = BACKENDS[request.param]()
    yield instance
    instance.close()


@pytest.fixture(scope="module")
def reference():
    """Serial ground truth: job -> value for the shared job list."""
    jobs = tiny_spec(tools=("p4", "express")).jobs()
    return jobs, [execute_job(job) for job in jobs]


# Jobs that already failed once in this process (or a forked worker):
# lets a retry test fail each job's first attempt deterministically
# without any cross-process coordination.
_FAILED_ONCE = set()


def _flaky_execute(job):
    if job not in _FAILED_ONCE:
        _FAILED_ONCE.add(job)
        raise OSError("transient failure (injected)")
    return 1.0


class TestProtocolSurface:
    def test_capability_flags(self, executor):
        assert isinstance(executor, Executor)
        assert isinstance(executor.name, str) and executor.name
        assert isinstance(executor.max_workers, int)
        assert executor.max_workers >= 1

    def test_worker_count_validated(self, executor):
        if type(executor) is SerialExecutor:
            pytest.skip("serial backend has no worker knob")
        with pytest.raises(EvaluationError):
            type(executor)(max_workers=0)

    def test_context_manager_closes(self, executor):
        with executor as entered:
            assert entered is executor
        # close() is idempotent and a closed executor is reusable.
        executor.close()
        jobs = tiny_spec(tools=("p4",)).jobs()[:2]
        assert list(executor.submit(jobs))


class TestSubmitSemantics:
    def test_outcomes_stream_in_job_order(self, executor, reference):
        jobs, expected = reference
        outcomes = list(executor.submit(jobs))
        assert len(outcomes) == len(jobs)
        assert [outcome.value for outcome in outcomes] == expected

    def test_outcome_fields(self, executor):
        jobs = tiny_spec(tools=("p4",)).jobs()[:4]
        for outcome in executor.submit(jobs):
            assert outcome.attempts == 1
            assert outcome.wall_seconds > 0.0
            assert outcome.value is None or isinstance(outcome.value, float)

    def test_empty_job_stream(self, executor):
        assert list(executor.submit([])) == []

    def test_accepts_lazy_iterable(self, executor):
        jobs = tiny_spec(tools=("p4",)).jobs()[:4]
        outcomes = list(executor.submit(iter(jobs)))
        assert [outcome.value for outcome in outcomes] == [
            execute_job(job) for job in jobs
        ]

    def test_abandoned_stream_leaves_executor_usable(self, executor):
        jobs = tiny_spec().jobs()
        stream = executor.submit(jobs)
        first = next(stream)
        assert first.value == execute_job(jobs[0])
        stream.close()  # consumer walks away mid-run
        again = list(executor.submit(jobs[:3]))
        assert len(again) == 3

    def test_retries_validated(self, executor):
        with pytest.raises(EvaluationError):
            list(executor.submit(tiny_spec(tools=("p4",)).jobs()[:1], retries=0))

    def test_lazy_iterable_consumption_is_bounded(self, executor):
        """A stalled consumer must exert backpressure: the backend may
        run ahead of consumption only by its admission window(s), so a
        huge lazy grid never piles up as finished-but-unconsumed
        outcomes (store-as-completed persistence granularity)."""
        import time

        jobs = tiny_spec(platforms=("sun-ethernet", "sun-atm-lan"),
                         seeds=(0, 1)).jobs()  # 60 jobs
        pulled = []

        def lazy():
            for job in jobs:
                pulled.append(job)
                yield job

        stream = executor.submit(lazy())
        next(stream)  # consume one outcome, then stall
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            before = len(pulled)
            time.sleep(0.05)
            if len(pulled) == before:
                break  # admission has quiesced against the stall
        # Window accounting per backend: serial pulls one at a time;
        # process keeps window chunks of chunk_jobs in flight; remote
        # keeps one window of tickets published.
        if type(executor) is SerialExecutor:
            bound = 2
        elif isinstance(executor, ProcessPoolExecutor):
            bound = executor.max_workers * executor.window_factor * executor.chunk_jobs + executor.chunk_jobs
        else:
            bound = executor.max_workers * executor.window_factor + 1
        assert len(pulled) <= bound, (
            "%s ran %d jobs ahead of a stalled consumer (bound %d)"
            % (executor.name, len(pulled), bound)
        )
        assert len(pulled) < len(jobs)  # the grid never fully drained
        stream.close()


class TestRetries:
    def _patch_flaky(self, executor, monkeypatch):
        if (
            isinstance(executor, ProcessPoolExecutor)
            and multiprocessing.get_start_method() != "fork"
        ):
            pytest.skip("monkeypatched execute_job reaches workers only via fork")
        import repro.core.executors as executors_module

        _FAILED_ONCE.clear()
        monkeypatch.setattr(executors_module, "execute_job", _flaky_execute)

    def test_transient_failures_retried_and_counted(self, executor, monkeypatch):
        self._patch_flaky(executor, monkeypatch)
        jobs = tiny_spec(tools=("p4",)).jobs()[:4]
        outcomes = list(executor.submit(jobs, retries=2))
        assert [outcome.value for outcome in outcomes] == [1.0] * 4
        assert [outcome.attempts for outcome in outcomes] == [2] * 4

    def test_without_retries_the_failure_propagates(self, executor, monkeypatch):
        self._patch_flaky(executor, monkeypatch)
        with pytest.raises(OSError, match="transient"):
            list(executor.submit(tiny_spec(tools=("p4",)).jobs()[:2], retries=1))


class TestBrokenPoolRecovery:
    def test_broken_pool_dropped_then_rebuilt(self, executor):
        if not isinstance(executor, ProcessPoolExecutor):
            pytest.skip("only pool-backed executors can lose workers")
        import concurrent.futures

        class BrokenPool(object):
            def submit(self, *args, **kwargs):
                raise concurrent.futures.BrokenExecutor("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        jobs = tiny_spec(tools=("p4",)).jobs()[:2]
        executor._pool = BrokenPool()
        with pytest.raises(concurrent.futures.BrokenExecutor):
            list(executor.submit(jobs))
        assert executor._pool is None  # poisoned pool dropped
        # The next pass transparently builds a working pool.
        assert [outcome.value for outcome in executor.submit(jobs)] == [
            execute_job(job) for job in jobs
        ]


class TestSchedulerIntegration:
    def test_values_and_telemetry_agree_across_backends(self, executor):
        """Simulations are deterministic, so the backend is invisible
        in the values and visible only in telemetry provenance."""
        spec = tiny_spec(tools=("p4",))
        baseline = Scheduler().run(spec)
        scheduler = Scheduler(executor=executor)
        result = scheduler.run(spec)
        assert result.values == baseline.values
        assert scheduler.simulations_run == spec.job_count()
        for record in result.telemetry.values():
            assert record.executor == executor.name
            assert not record.cache_hit
            assert record.wall_seconds > 0.0
            assert record.attempts == 1
