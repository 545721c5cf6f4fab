"""Execution backends behind one streaming ``Executor`` protocol.

Work reaches an executor through exactly one method::

    submit(jobs, retries=1) -> Iterator[JobOutcome]

``jobs`` may be any (possibly lazy) iterable; outcomes stream back
**in job order** while later jobs may still be executing, which is
what lets the scheduler persist each finished measurement immediately
(kill/cancel-and-resume) and feed live progress events.  The uniform
lifecycle is ``close()`` / context manager; :attr:`Executor.name` and
:attr:`Executor.max_workers` describe a backend without ``isinstance``
checks.  Every backend consumes the job iterable on the calling
thread (the scheduler's run thread).  Three backends implement it:

* :class:`SerialExecutor` — in-process, one job at a time (default).
* :class:`ProcessPoolExecutor` — ``concurrent.futures`` worker
  processes, jobs chunked through a sliding window over a persistent,
  lazily-created pool.
* ``RemoteExecutor`` (in :mod:`repro.distributed`) — publishes jobs
  to an on-disk queue that ``repro worker`` processes pull from,
  sharing results through the sharded disk cache.

All three pass the protocol-conformance suite in
``tests/core/test_executor_protocol.py``.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import time
from collections import deque
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

from repro.core.jobs import MeasurementJob, execute_job
from repro.errors import EvaluationError

__all__ = [
    "JobOutcome",
    "execute_job_instrumented",
    "execute_job_chunk",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "EXECUTOR_BACKENDS",
    "resolve_workers",
    "create_executor",
]


class JobOutcome(NamedTuple):
    """What instrumented execution reports per job."""

    value: Optional[float]
    wall_seconds: float
    attempts: int


def execute_job_instrumented(job: MeasurementJob, retries: int = 1) -> JobOutcome:
    """Run one job, timing it and retrying transient failures.

    Module-level so it pickles into :mod:`concurrent.futures` worker
    processes.
    """
    if retries < 1:
        raise EvaluationError("retries must be >= 1")
    start = time.perf_counter()
    for attempt in range(1, retries + 1):
        try:
            value = execute_job(job)
        except EvaluationError:
            raise  # misconfiguration: retrying cannot help
        except Exception:
            if attempt == retries:
                raise
        else:
            return JobOutcome(value, time.perf_counter() - start, attempt)
    raise AssertionError("unreachable")  # pragma: no cover


def execute_job_chunk(jobs: Sequence[MeasurementJob], retries: int = 1) -> List[JobOutcome]:
    """Run a chunk of jobs in one worker round-trip (module-level so it
    pickles into :mod:`concurrent.futures` worker processes)."""
    return [execute_job_instrumented(job, retries) for job in jobs]


class Executor(object):
    """The execution-backend protocol: ``submit`` plus a lifecycle.

    Subclasses implement :meth:`submit`; ``close`` and the
    context-manager protocol come from this base class.  Backends
    with real resources (a worker pool) override :meth:`close`.
    """

    #: Short machine-readable backend name (lands in telemetry).
    name = "executor"

    #: Upper bound on concurrently executing jobs (1 = serial).
    max_workers = 1

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        """Execute ``jobs``, yielding one :class:`JobOutcome` per job
        **in job order**.  ``jobs`` may be lazy; implementations must
        not materialize it wholesale.  Closing the returned generator
        early must drop work that has not started."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent; a closed executor
        may be reused — resources are rebuilt lazily)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run jobs one after another in this process (the default)."""

    name = "serial"
    max_workers = 1

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        # A generator, deliberately: the scheduler persists each
        # outcome as it arrives, so a killed sweep keeps every job it
        # finished instead of losing the whole batch.
        for job in jobs:
            yield execute_job_instrumented(job, retries)


class ProcessPoolExecutor(Executor):
    """Fan jobs out over ``max_workers`` worker processes.

    Jobs and samples are plain picklable values, so this is a thin
    wrapper over :class:`concurrent.futures.ProcessPoolExecutor`;
    result order matches job order.

    The underlying pool is created lazily on the first batch and
    **reused across calls**: repeated ``submit`` passes (the common
    shape under sweep traffic — one ``Scheduler.run`` per spec) pay
    worker startup once, not once per pass.  Call :meth:`close` (or
    use the executor as a context manager) to shut the workers down;
    an executor left open is reclaimed at interpreter exit.

    Tools registered at run time (:func:`repro.tools.registry.register_tool`)
    reach workers only on fork-based platforms (Linux): under the
    ``spawn`` start method (macOS/Windows) each worker re-imports the
    registry without the registration, so use :class:`SerialExecutor`
    for custom tools there.
    """

    name = "process-pool"

    #: Jobs shipped per worker round-trip (IPC amortization without
    #: delaying result streaming much).
    chunk_jobs = 4

    #: Chunks kept in flight per worker: deep enough that no worker
    #: idles while results stream back, shallow enough that a huge
    #: grid never materializes on this side.
    window_factor = 4

    def __init__(self, max_workers: int = 2) -> None:
        if max_workers < 1:
            raise EvaluationError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        # Streams results in job order while the pool keeps working:
        # chunks of jobs are submitted through a sliding window (no
        # barrier — as each oldest chunk's results are yielded, fresh
        # chunks are consumed from the (possibly lazy) iterable), so
        # the scheduler persists finished work while later jobs are
        # still simulating and a huge grid never materializes here.
        jobs = iter(jobs)
        in_flight: deque = deque()
        window = self.max_workers * self.window_factor
        try:
            while True:
                while len(in_flight) < window:
                    chunk = list(itertools.islice(jobs, self.chunk_jobs))
                    if not chunk:
                        break
                    in_flight.append(
                        self._ensure_pool().submit(execute_job_chunk, chunk, retries)
                    )
                if not in_flight:
                    return
                for outcome in in_flight.popleft().result():
                    yield outcome
        except concurrent.futures.BrokenExecutor:
            # A dead worker poisons the whole pool: drop it so the
            # next pass starts fresh instead of failing forever.
            self.close()
            raise
        finally:
            # The consumer may abandon the generator early — an
            # exception mid-sweep, itertools.islice, ctrl-C, a
            # RunHandle cancel.  Without this, every chunk still in
            # the window keeps simulating in the pool (and new
            # consumers queue behind it).  Cancel whatever has not
            # started; chunks already executing run to completion,
            # which is as good as process pools offer.
            for future in in_flight:
                future.cancel()


#: Backend names :func:`create_executor` understands.
EXECUTOR_BACKENDS = ("serial", "process", "remote")


def resolve_workers(jobs: Union[int, str, None]) -> int:
    """Normalize a ``--jobs``-style request to a worker count.

    ``"auto"`` (or ``None``) means one worker per CPU.  Anything else
    must be a positive integer — the check runs *here*, before any
    spec expansion or pool construction, so a bad value fails with a
    clear :class:`~repro.errors.ReproError` instead of an unhelpful
    downstream crash.
    """
    if jobs is None or (isinstance(jobs, str) and jobs.strip().lower() == "auto"):
        return os.cpu_count() or 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise EvaluationError(
            "jobs must be a positive integer or 'auto', got %r" % (jobs,)
        )
    if jobs < 1:
        raise EvaluationError(
            "jobs must be >= 1, got %d (use 'auto' for one worker per CPU)" % jobs
        )
    return jobs


def create_executor(
    jobs: Union[int, str, None] = 1,
    backend: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> Executor:
    """Executor for a ``--jobs N [--backend B]`` style request.

    ``jobs`` accepts a positive integer or ``"auto"`` (one worker per
    CPU).  ``backend`` picks the implementation explicitly — one of
    :data:`EXECUTOR_BACKENDS` — while the default keeps the classic
    behavior: serial for one worker, a process pool otherwise.  The
    ``remote`` backend additionally needs ``queue_dir``, the shared
    job-queue directory its ``repro worker`` fleet watches; ``jobs``
    then sizes the coordinator's admission window, not a local pool.
    """
    workers = resolve_workers(jobs)
    if backend is None:
        backend = "serial" if workers == 1 else "process"
    if backend != "remote" and queue_dir is not None:
        raise EvaluationError(
            "queue_dir only applies to the remote backend, not %r" % backend
        )
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ProcessPoolExecutor(max_workers=workers)
    if backend == "remote":
        if queue_dir is None:
            raise EvaluationError(
                "the remote backend needs a queue directory (--queue DIR) "
                "shared with its repro worker processes"
            )
        # Imported here: repro.distributed builds on this module.
        from repro.distributed.executor import RemoteExecutor

        return RemoteExecutor(queue_dir=queue_dir, max_workers=workers)
    raise EvaluationError(
        "unknown executor backend %r; available: %s"
        % (backend, ", ".join(EXECUTOR_BACKENDS))
    )
