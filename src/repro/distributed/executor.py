"""RemoteExecutor: the coordinator side as a standard Executor.

``submit(jobs, retries) -> Iterator[JobOutcome]`` is implemented by
enqueuing tickets onto the shared :class:`JobQueue` through a sliding
admission window and consuming outcome files strictly in enqueue
order.  Because it speaks the same one-method protocol as the local
backends, everything layered on executors — the streaming scheduler,
RunHandle events, cooperative cancellation, the evaluation service —
drives a remote fleet unchanged; the protocol-conformance suite in
``tests/core/test_executor_protocol.py`` passes as-is over in-process
workers.

Cancellation is lease revocation: abandoning the outcome iterator
(generator close, Ctrl-C, ``RunHandle.cancel``) withdraws every
unclaimed ticket in the window.  Claimed tickets finish and persist —
the same in-flight-work-completes semantics as the local backends.
A worker failure surfaces as the original exception type re-raised in
the coordinator (rebuilt from the transported type name + message),
so retry and propagation contracts hold across the process boundary.
"""

from __future__ import annotations

import builtins
import time
import uuid
from collections import deque
from typing import Iterable, Iterator, Optional

from repro.core.executors import Executor, JobOutcome
from repro.core.jobs import MeasurementJob
from repro.distributed.queue import JobQueue
from repro import errors as _errors
from repro.errors import EvaluationError

__all__ = ["RemoteExecutor"]

_NO_MORE_JOBS = object()


def _rebuild_error(info: dict) -> BaseException:
    """The worker's failure as a local exception of the same type.

    Types resolve from builtins first, then :mod:`repro.errors`;
    anything unresolvable degrades to :class:`EvaluationError` with
    the type name preserved in the message.
    """
    name = str(info.get("type") or "Exception")
    message = str(info.get("message") or "")
    exc_type = getattr(builtins, name, None)
    if exc_type is None:
        exc_type = getattr(_errors, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
        try:
            return exc_type(message)
        except Exception:  # exotic constructor signature
            pass
    return EvaluationError("remote worker failed with %s: %s" % (name, message))


class RemoteExecutor(Executor):
    """Execute jobs by publishing them to a worker-pull queue.

    Parameters
    ----------
    queue_dir:
        The shared queue directory ``repro worker`` processes watch.
        May be omitted at construction (capability introspection,
        worker-count validation) but is required by :meth:`submit`.
    max_workers:
        The fleet size this coordinator *assumes* when sizing its
        admission window — enough tickets stay published to keep that
        many workers busy without materializing a huge lazy grid.
        The actual fleet may be larger or smaller; this knob only
        shapes pipelining and backpressure.
    poll_interval:
        Sleep between outcome-directory polls.
    timeout:
        Max seconds to wait for any single outcome (None = forever).
        Guards against a queue nobody is serving.
    lease_timeout:
        Passed to :class:`JobQueue`; also drives the coordinator-side
        stale-lease sweep that runs while it waits, so a dead worker's
        tickets return to the pool even if no healthy worker is idle
        enough to notice.
    """

    name = "remote"

    #: Tickets kept published beyond one per assumed worker — bounds
    #: how far a lazy job iterable is consumed ahead of consumption.
    window_factor = 2

    def __init__(
        self,
        queue_dir: Optional[str] = None,
        max_workers: int = 2,
        poll_interval: float = 0.01,
        timeout: Optional[float] = None,
        lease_timeout: float = 30.0,
    ) -> None:
        if max_workers < 1:
            raise EvaluationError("max_workers must be >= 1")
        if poll_interval <= 0.0:
            raise EvaluationError("poll_interval must be > 0")
        self.max_workers = max_workers
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.queue: Optional[JobQueue] = (
            JobQueue(queue_dir, lease_timeout=lease_timeout)
            if queue_dir is not None
            else None
        )

    def submit(
        self, jobs: Iterable[MeasurementJob], retries: int = 1
    ) -> Iterator[JobOutcome]:
        if retries < 1:
            raise EvaluationError("retries must be >= 1")
        if self.queue is None:
            raise EvaluationError(
                "RemoteExecutor needs a queue_dir to submit jobs "
                "(point it at the directory your `repro worker` "
                "processes watch)"
            )
        return self._stream(iter(jobs), retries)

    def _stream(self, jobs: Iterator[MeasurementJob], retries: int) -> Iterator[JobOutcome]:
        queue = self.queue
        assert queue is not None
        # Tickets sort FIFO within a batch; the batch nonce keeps
        # concurrent coordinators sharing one queue out of each
        # other's namespaces.
        batch = uuid.uuid4().hex[:8]
        window = self.max_workers * self.window_factor
        pending: deque = deque()  # tickets enqueued, outcome not yet yielded
        sequence = 0
        try:
            while True:
                while len(pending) < window:
                    job = next(jobs, _NO_MORE_JOBS)
                    if job is _NO_MORE_JOBS:
                        break
                    ticket = "%s-%06d" % (batch, sequence)
                    sequence += 1
                    queue.enqueue(ticket, job, retries)
                    pending.append(ticket)
                if not pending:
                    return
                # Outcomes leave strictly in enqueue order even when a
                # later ticket finishes first — its file just waits.
                outcome = self._await_outcome(queue, pending[0])
                pending.popleft()
                error = outcome.get("error")
                if error:
                    raise _rebuild_error(error)
                yield JobOutcome(
                    outcome.get("value"),
                    float(outcome.get("wall_seconds") or 0.0),
                    int(outcome.get("attempts") or 1),
                )
        finally:
            # Consumer done or walked away (cancel, Ctrl-C, exception):
            # revoke every unclaimed ticket and sweep any outcomes that
            # already landed.  Claimed tickets finish on their workers
            # and persist to the shared cache — cooperative-cancel
            # semantics, remote edition.
            for ticket in pending:
                queue.revoke(ticket)
                queue.discard_outcome(ticket)

    def _await_outcome(self, queue: JobQueue, ticket: str) -> dict:
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        sweep_at = time.monotonic() + queue.lease_timeout
        while True:
            outcome = queue.take_outcome(ticket)
            if outcome is not None:
                return outcome
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise EvaluationError(
                    "no worker completed ticket %s within %.1fs (queue %s; "
                    "%d worker beacon(s) live) — are `repro worker` "
                    "processes running against this queue?"
                    % (
                        ticket,
                        self.timeout,
                        queue.root,
                        len(queue.live_workers()),
                    )
                )
            if now >= sweep_at:
                # The coordinator doubles as a reclaimer so a dead
                # worker's tickets recirculate even when every healthy
                # worker is busy (or gone).
                queue.reclaim_stale()
                sweep_at = now + queue.lease_timeout
            time.sleep(self.poll_interval)
