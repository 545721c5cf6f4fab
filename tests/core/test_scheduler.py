"""Scheduler, cache and ResultSet tests (tiny workloads throughout)."""

import pytest

from repro.core import evaluate_tools
from repro.core.cache import ResultCache
from repro.core.executors import (
    Executor,
    JobOutcome,
    ProcessPoolExecutor,
    SerialExecutor,
    create_executor,
    resolve_workers,
)
from repro.core.scheduler import Scheduler
from repro.core.spec import EvaluationSpec
from repro.core.weights import WeightProfile
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


def values(executor, jobs):
    return [outcome.value for outcome in executor.submit(jobs)]


class TestCache:
    def test_second_run_simulates_nothing(self):
        """Re-running an identical spec performs zero new simulations."""
        spec = tiny_spec()
        scheduler = Scheduler()
        first = scheduler.run(spec)
        simulated = scheduler.simulations_run
        assert simulated == spec.job_count()
        second = scheduler.run(spec)
        assert scheduler.simulations_run == simulated
        assert scheduler.cache.hits == spec.job_count()
        assert second.values == first.values

    def test_overlapping_specs_share_measurements(self):
        cache = ResultCache()
        narrow = tiny_spec(tools=("p4", "pvm"))
        wide = tiny_spec(tools=("p4", "pvm", "express"))
        Scheduler(cache=cache).run(narrow)
        scheduler = Scheduler(cache=cache)
        scheduler.run(wide)
        # Only express's share of the wide grid is new.
        assert scheduler.simulations_run == wide.job_count() - narrow.job_count()

    def test_cache_distinguishes_none_from_missing(self):
        """PVM's missing global sum caches as None, not as a miss."""
        spec = tiny_spec(tools=("pvm",))
        scheduler = Scheduler()
        result = scheduler.run(spec)
        gsum = [job for job in spec.jobs() if job.kind == "global_sum"]
        assert result.value(gsum[0]) is None
        before = scheduler.simulations_run
        scheduler.run(spec)
        assert scheduler.simulations_run == before


class TestExecutors:
    def test_create_executor(self):
        assert isinstance(create_executor(1), SerialExecutor)
        assert isinstance(create_executor(3), ProcessPoolExecutor)
        with pytest.raises(EvaluationError):
            create_executor(0)

    def test_create_executor_validates_early_with_clear_messages(self):
        """Bad --jobs style values fail here, before any spec
        expansion or pool construction, with actionable messages."""
        with pytest.raises(EvaluationError, match="got -2.*auto"):
            create_executor(-2)
        with pytest.raises(EvaluationError, match="positive integer or 'auto'"):
            create_executor(2.5)
        with pytest.raises(EvaluationError, match="positive integer or 'auto'"):
            create_executor(True)
        with pytest.raises(EvaluationError, match="unknown executor backend"):
            create_executor(2, backend="quantum")

    def test_create_executor_auto_and_backends(self):
        import os

        cpus = os.cpu_count() or 1
        assert resolve_workers("auto") == cpus
        assert resolve_workers(None) == cpus
        auto = create_executor("auto")
        if cpus == 1:
            assert isinstance(auto, SerialExecutor)
        else:
            assert isinstance(auto, ProcessPoolExecutor)
            assert auto.max_workers == cpus
        assert isinstance(create_executor(2, backend="serial"), SerialExecutor)
        assert isinstance(create_executor(1, backend="process"), ProcessPoolExecutor)
        assert create_executor(3, backend="process").max_workers == 3

    def test_serial_and_parallel_agree(self):
        """Simulations are deterministic, so the backend is invisible."""
        spec = tiny_spec(tools=("p4", "express"))
        serial = Scheduler(executor=SerialExecutor()).run(spec)
        with ProcessPoolExecutor(max_workers=2) as executor:
            parallel = Scheduler(executor=executor).run(spec)
        assert parallel.values == serial.values


class TestPersistentPool:
    def test_pool_is_reused_across_passes(self):
        """Repeated run calls must not pay process startup again."""
        executor = ProcessPoolExecutor(max_workers=2)
        try:
            spec_a = tiny_spec(tools=("p4",))
            spec_b = tiny_spec(tools=("express",))
            Scheduler(executor=executor).run(spec_a)
            pool = executor._pool
            assert pool is not None
            Scheduler(executor=executor).run(spec_b)
            assert executor._pool is pool
        finally:
            executor.close()

    def test_close_is_idempotent_and_allows_restart(self):
        executor = ProcessPoolExecutor(max_workers=2)
        jobs = tiny_spec(tools=("p4",)).jobs()[:2]
        first = values(executor, jobs)
        executor.close()
        assert executor._pool is None
        executor.close()  # no-op
        # A closed executor lazily builds a fresh pool on reuse.
        assert values(executor, jobs) == first
        executor.close()

    def test_context_manager_shuts_down(self):
        with ProcessPoolExecutor(max_workers=2) as executor:
            values(executor, tiny_spec(tools=("p4",)).jobs()[:2])
            assert executor._pool is not None
        assert executor._pool is None

    def test_scheduler_close_reaches_executor(self):
        with Scheduler(executor=ProcessPoolExecutor(max_workers=2)) as scheduler:
            scheduler.run_jobs(tiny_spec(tools=("p4",)).jobs()[:2])
            assert scheduler.executor._pool is not None
        assert scheduler.executor._pool is None

    def test_submit_only_executor_runs_through_scheduler(self):
        """``submit`` is the one protocol method: a subclass that
        implements nothing else serves the scheduler, which forwards
        its retry budget and records the backend's name and attempts."""

        class Doubler(Executor):
            name = "doubler"

            def submit(self, jobs, retries=1):
                for job in jobs:
                    yield JobOutcome(2.0, 0.0, retries)

        jobs = tiny_spec(tools=("p4",)).jobs()[:3]
        scheduler = Scheduler(executor=Doubler(), retries=4)
        assert scheduler.run_jobs(jobs) == {job: 2.0 for job in jobs}
        assert scheduler.simulations_run == 3
        records = [scheduler.telemetry[job] for job in jobs]
        assert [record.executor for record in records] == ["doubler"] * 3
        assert [record.attempts for record in records] == [4, 4, 4]

    def test_broken_pool_is_dropped_not_reused(self):
        """A pool poisoned by a dead worker must not be served again:
        the failing pass raises, the next pass gets a fresh pool."""
        import concurrent.futures

        class BrokenPool(object):
            def submit(self, *args, **kwargs):
                raise concurrent.futures.BrokenExecutor("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        executor = ProcessPoolExecutor(max_workers=2)
        jobs = tiny_spec(tools=("p4",)).jobs()[:2]
        try:
            executor._pool = BrokenPool()
            with pytest.raises(concurrent.futures.BrokenExecutor):
                list(executor.submit(jobs))
            assert executor._pool is None  # poisoned pool dropped
            # The next pass transparently builds a working pool.
            assert values(executor, jobs)
        finally:
            executor.close()


class TestAbandonedStream:
    """A consumer that stops early (islice, exception, ctrl-C) must
    not leave queued job chunks simulating in the pool forever."""

    @staticmethod
    def _executor_with_fake_pool(prefilled_chunks=1):
        """A ProcessPoolExecutor whose pool hands back real Futures:
        the first ``prefilled_chunks`` resolve immediately, the rest
        stay pending (as if workers were still busy)."""
        import concurrent.futures

        executor = ProcessPoolExecutor(max_workers=2)
        submitted = []

        class FakePool(object):
            def submit(self, fn, chunk, retries):
                future = concurrent.futures.Future()
                if len(submitted) < prefilled_chunks:
                    future.set_result(
                        [JobOutcome(1.0, 0.0, 1) for _ in chunk]
                    )
                submitted.append(future)
                return future

            def shutdown(self, *args, **kwargs):
                pass

        executor._pool = FakePool()
        return executor, submitted

    def test_generator_close_cancels_queued_chunks(self):
        executor, submitted = self._executor_with_fake_pool()
        jobs = tiny_spec(tools=("p4", "pvm", "express")).jobs()
        stream = executor.submit(jobs)
        next(stream)  # consume one outcome, abandon the rest
        stream.close()
        # The window was filled (several chunks in flight) and every
        # chunk still queued behind the consumed one is cancelled.
        assert len(submitted) > 1
        assert all(future.cancelled() for future in submitted[1:])

    def test_exception_mid_sweep_cancels_queued_chunks(self):
        executor, submitted = self._executor_with_fake_pool()
        jobs = tiny_spec(tools=("p4", "pvm", "express")).jobs()
        stream = executor.submit(jobs)
        next(stream)
        with pytest.raises(RuntimeError):
            stream.throw(RuntimeError("consumer died mid-sweep"))
        assert all(future.cancelled() for future in submitted[1:])

    def test_exhausted_stream_cancels_nothing(self):
        """Normal completion leaves no pending futures to cancel."""
        with ProcessPoolExecutor(max_workers=2) as executor:
            jobs = tiny_spec(tools=("p4",)).jobs()[:3]
            outcomes = list(executor.submit(jobs))
        assert len(outcomes) == 3
        assert all(outcome.value is not None for outcome in outcomes)


class TestStreamingExpansion:
    def test_iter_jobs_matches_jobs(self):
        spec = tiny_spec(platforms=("sun-ethernet", "sun-atm-lan"), seeds=(0, 1))
        assert list(spec.iter_jobs()) == spec.jobs()
        assert spec.job_count() == len(spec.jobs())

    def test_run_jobs_accepts_lazy_iterable(self):
        """The job stream is consumed without materializing: results,
        cache counters and order match the list-based path."""
        spec = tiny_spec(tools=("p4",))
        eager = Scheduler()
        expected = eager.run_jobs(spec.jobs())

        pulled = []

        def stream():
            for job in spec.iter_jobs():
                pulled.append(job)
                yield job

        lazy = Scheduler()
        actual = lazy.run_jobs(stream())
        assert actual == expected
        assert list(actual) == list(expected)  # first-occurrence order kept
        assert pulled == spec.jobs()
        assert lazy.simulations_run == eager.simulations_run

    def test_short_executor_is_an_error(self):
        """An executor that drops outcomes cannot pass silently."""

        class Lossy(Executor):
            name = "lossy"

            def submit(self, jobs, retries=1):
                for _ in list(jobs)[:-1]:
                    yield JobOutcome(0.0, 0.0, 1)

        scheduler = Scheduler(executor=Lossy())
        with pytest.raises(EvaluationError, match="too few"):
            scheduler.run_jobs(tiny_spec(tools=("p4",)).jobs()[:3])


class TestResultSet:
    @pytest.fixture(scope="class")
    def sweep(self):
        """The acceptance grid: 2 platforms x 3 tools x 2 profiles."""
        spec = tiny_spec(
            platforms=("sun-ethernet", "sun-atm-lan"),
            profiles=("balanced", "end-user"),
        )
        scheduler = Scheduler()
        return spec, scheduler, scheduler.run(spec)

    def test_profiles_rescore_from_one_measurement_pass(self, sweep):
        spec, scheduler, result = sweep
        assert scheduler.simulations_run == spec.job_count()
        reports = result.reports()
        assert set(reports) == {
            (platform, profile, 0)
            for platform in ("sun-ethernet", "sun-atm-lan")
            for profile in ("balanced", "end-user")
        }
        # Scoring four report cells triggered no further simulation.
        assert scheduler.simulations_run == spec.job_count()

    def test_reweighting_changes_overall_not_levels(self, sweep):
        _, _, result = sweep
        balanced = result.report("sun-ethernet", "balanced")
        end_user = result.report("sun-ethernet", "end-user")
        for tool in balanced.scores():
            assert balanced.scores()[tool]["tpl"] == end_user.scores()[tool]["tpl"]
        assert any(
            balanced.scores()[tool]["overall"] != end_user.scores()[tool]["overall"]
            for tool in balanced.scores()
        )

    def test_out_of_spec_profile_is_still_free(self, sweep):
        from repro.core.levels import ADL, APL, TPL

        spec, scheduler, result = sweep
        custom = WeightProfile("adl-heavy", {TPL: 0.1, APL: 0.1, ADL: 0.8})
        report = result.report("sun-atm-lan", custom)
        assert report.profile is custom
        assert scheduler.simulations_run == spec.job_count()

    def test_report_shape_matches_classic_evaluator(self, sweep):
        _, _, result = sweep
        classic = evaluate_tools(platform="sun-ethernet", **_TINY)
        modern = result.report("sun-ethernet", "balanced")
        assert modern.scores() == classic.scores()
        assert modern.ranking() == classic.ranking()

    def test_unknown_cell_rejected(self, sweep):
        _, _, result = sweep
        with pytest.raises(EvaluationError):
            result.report("alpha-fddi")
        with pytest.raises(EvaluationError):
            result.report("sun-ethernet", "tool-developer")
        with pytest.raises(EvaluationError):
            result.report("sun-ethernet", "balanced", seed=99)

    def test_comparison_table_covers_grid(self, sweep):
        _, _, result = sweep
        text = result.comparison()
        for token in ("sun-ethernet/balanced", "sun-atm-lan/end-user", "p4"):
            assert token in text

    def test_nonzero_seed_specs_reconstruct(self):
        """Set reconstruction defaults to the spec's seeds, not 0."""
        spec = tiny_spec(tools=("p4",), seeds=(42,))
        result = Scheduler().run(spec)
        assert [s.name for s in result.tpl_sets("sun-ethernet")]
        assert [s.name for s in result.apl_sets("sun-ethernet")] == ["montecarlo"]
        with pytest.raises(EvaluationError):
            result.tpl_sets("sun-ethernet", seed=0)

    def test_json_export(self, sweep, tmp_path):
        import json

        spec, _, result = sweep
        path = tmp_path / "sweep.json"
        result.to_json(str(path))
        data = json.loads(path.read_text())
        assert data["spec"] == spec.to_dict()
        assert len(data["samples"]) == spec.job_count()
        assert "sun-atm-lan/end-user/seed0" in data["scores"]
