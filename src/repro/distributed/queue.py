"""The on-disk job queue both sides of the fan-out share.

Everything is a file under one queue directory, so the only transport
workers and coordinator need is a shared filesystem (NFS on a real
cluster, a tmp dir in tests)::

    queue/
      jobs/      <ticket>.json   work nobody has claimed yet
      claims/    <ticket>.json   leased work; mtime is the heartbeat
      outcomes/  <ticket>.json   finished work the coordinator takes
      workers/   <id>.json       worker liveness/stats beacons

Every state transition is a single atomic filesystem operation, which
is the whole concurrency story:

* **enqueue** writes ``jobs/<ticket>.json`` via temp file +
  ``os.replace`` — a worker never sees a torn ticket.
* **claim** is ``os.replace(jobs/T, claims/T)``.  Rename is atomic on
  POSIX, so exactly one of N racing workers wins; the losers get
  ``FileNotFoundError`` and move on.  The claim file *is* the lease,
  and its mtime is refreshed by the worker's heartbeat.
* **complete** atomically publishes ``outcomes/<ticket>.json`` and
  releases the lease.
* **reclaim** moves a claim whose heartbeat went stale back to
  ``jobs/`` — again one atomic rename, so concurrent reclaimers (any
  worker or the coordinator may sweep) cannot duplicate a ticket.

Reclaim gives at-least-once execution: a worker that dies *after*
simulating but *before* completing gets its ticket re-run.  That is
safe by construction — jobs are deterministic and results land in the
content-addressed cache via atomic same-key writes — and the re-run
is usually a cache hit, which the kill-a-worker tests pin.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Dict, List, NamedTuple, Optional

from repro.core.jobs import MeasurementJob
from repro.errors import EvaluationError

__all__ = ["Claim", "JobQueue"]

_JOBS = "jobs"
_CLAIMS = "claims"
_OUTCOMES = "outcomes"
_WORKERS = "workers"


def _write_json_atomic(path: str, payload: dict) -> None:
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class Claim(NamedTuple):
    """A leased ticket: the job to run and where the lease lives."""

    ticket: str
    job: MeasurementJob
    retries: int
    path: str


class JobQueue(object):
    """Coordinator/worker API over one shared queue directory.

    ``lease_timeout`` is how long a claim may go without a heartbeat
    before any process is allowed to reclaim it; keep it several times
    the worker heartbeat interval so a briefly stalled worker does not
    lose (and then duplicate) work it is still running.
    """

    #: Outcome files nobody took within this many lease timeouts are
    #: litter (their coordinator cancelled or died) and get swept.
    OUTCOME_TTL_LEASES = 10.0

    def __init__(self, root: str, lease_timeout: float = 30.0) -> None:
        if lease_timeout <= 0.0:
            raise EvaluationError("lease_timeout must be > 0")
        self.root = os.fspath(root)
        self.lease_timeout = lease_timeout
        for name in (_JOBS, _CLAIMS, _OUTCOMES, _WORKERS):
            os.makedirs(os.path.join(self.root, name), exist_ok=True)

    def _path(self, kind: str, name: str) -> str:
        return os.path.join(self.root, kind, name + ".json")

    def _tickets(self, kind: str) -> List[str]:
        try:
            names = os.listdir(os.path.join(self.root, kind))
        except OSError:
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    # -- coordinator side ----------------------------------------------

    def enqueue(self, ticket: str, job: MeasurementJob, retries: int = 1) -> None:
        """Publish a ticket for any worker to claim."""
        payload = {"ticket": ticket, "job": job.to_dict(), "retries": retries}
        _write_json_atomic(self._path(_JOBS, ticket), payload)

    def revoke(self, ticket: str) -> bool:
        """Withdraw an *unclaimed* ticket (lease revocation: the
        cancellation primitive).  Returns False when a worker already
        claimed it — that job finishes and persists, matching the
        cooperative-cancel semantics everywhere else in the repo."""
        try:
            os.unlink(self._path(_JOBS, ticket))
            return True
        except OSError:
            return False

    def take_outcome(self, ticket: str) -> Optional[dict]:
        """Consume the ticket's outcome file, or None if not done yet.

        Read-then-unlink, in that order: the unlink only happens after
        a successful parse, so a coordinator killed mid-take leaves
        the outcome for its successor instead of losing it.
        """
        path = self._path(_OUTCOMES, ticket)
        outcome = _read_json(path)
        if outcome is None:
            return None
        try:
            os.unlink(path)
        except OSError:
            pass
        return outcome

    def discard_outcome(self, ticket: str) -> None:
        try:
            os.unlink(self._path(_OUTCOMES, ticket))
        except OSError:
            pass

    # -- worker side ---------------------------------------------------

    def claim(self, worker_id: str) -> Optional[Claim]:
        """Lease the oldest available ticket, or None if the queue is
        drained.  Exactly one of N racing claimants wins any ticket
        (atomic rename); everyone else silently moves to the next."""
        for ticket in self._tickets(_JOBS):
            claim_path = self._path(_CLAIMS, ticket)
            try:
                os.replace(self._path(_JOBS, ticket), claim_path)
                # The rename keeps the enqueue-time mtime; the lease
                # starts now, or a ticket that waited in jobs/ longer
                # than lease_timeout would be reclaimable on arrival.
                os.utime(claim_path)
            except OSError:
                continue  # lost the race (or a revocation) — next ticket
            payload = _read_json(claim_path)
            if payload is None or "job" not in payload:
                # A torn ticket cannot happen via enqueue (atomic
                # write); treat foreign litter as poison and drop it.
                try:
                    os.unlink(claim_path)
                except OSError:
                    pass
                continue
            try:
                job = MeasurementJob.from_dict(payload["job"])
            except Exception:
                try:
                    os.unlink(claim_path)
                except OSError:
                    pass
                continue
            return Claim(
                ticket=ticket,
                job=job,
                retries=int(payload.get("retries", 1)),
                path=claim_path,
            )
        return None

    def heartbeat(self, claim: Claim) -> None:
        """Refresh the lease (claim-file mtime) so reclaimers know the
        worker holding it is still alive."""
        try:
            os.utime(claim.path)
        except OSError:
            pass  # completed or reclaimed from under us; harmless

    def complete(self, claim: Claim, outcome: dict) -> None:
        """Publish the outcome and release the lease, in that order —
        a worker killed between the two steps leaves a stale claim
        that reclaims into a (cache-hit) re-run, never a lost result."""
        _write_json_atomic(self._path(_OUTCOMES, claim.ticket), outcome)
        try:
            os.unlink(claim.path)
        except OSError:
            pass  # reclaimed from under us; the rerun will cache-hit

    def release(self, claim: Claim) -> None:
        """Hand an unprocessed claim back (worker shutting down)."""
        try:
            os.replace(claim.path, self._path(_JOBS, claim.ticket))
        except OSError:
            pass

    def reclaim_stale(self) -> int:
        """Move claims whose heartbeat stopped back to ``jobs/``.

        Any process may sweep; the rename race resolves to one winner
        per ticket.  Returns how many tickets went back.
        """
        reclaimed = 0
        now = time.time()
        for ticket in self._tickets(_CLAIMS):
            path = self._path(_CLAIMS, ticket)
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue  # completed meanwhile
            if age < self.lease_timeout:
                continue
            try:
                os.replace(path, self._path(_JOBS, ticket))
                reclaimed += 1
            except OSError:
                pass  # another reclaimer won, or the worker completed
        return reclaimed

    def sweep_outcomes(self) -> int:
        """Unlink outcome files old enough that no coordinator is
        coming back for them (cancelled or killed runs)."""
        swept = 0
        ttl = self.lease_timeout * self.OUTCOME_TTL_LEASES
        now = time.time()
        for ticket in self._tickets(_OUTCOMES):
            path = self._path(_OUTCOMES, ticket)
            try:
                if now - os.path.getmtime(path) >= ttl:
                    os.unlink(path)
                    swept += 1
            except OSError:
                pass
        return swept

    # -- introspection -------------------------------------------------

    def pending(self) -> List[str]:
        """Tickets nobody has claimed yet."""
        return self._tickets(_JOBS)

    def claimed(self) -> List[str]:
        """Tickets currently under lease."""
        return self._tickets(_CLAIMS)

    def heartbeat_worker(self, worker_id: str, stats: Dict[str, int]) -> None:
        """Publish a liveness/stats beacon for ``repro worker`` fleets
        (purely informational; leases do not depend on it)."""
        payload = {"worker": worker_id, "time": time.time()}
        payload.update(stats)
        _write_json_atomic(self._path(_WORKERS, worker_id), payload)

    def live_workers(self) -> List[dict]:
        """Beacons refreshed within one lease timeout."""
        alive = []
        now = time.time()
        for worker_id in self._tickets(_WORKERS):
            beacon = _read_json(self._path(_WORKERS, worker_id))
            if beacon and now - beacon.get("time", 0.0) < self.lease_timeout:
                alive.append(beacon)
        return alive
