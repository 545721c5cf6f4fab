"""End-to-end over HTTP: the full evaluation-as-a-service journey.

Each test boots the real stack — SQLite store, registry, asyncio HTTP
server on a background loop — and talks to it only through
:class:`~repro.service.client.ServiceClient`, exactly like external
tooling would.  Covered here (the PR's acceptance criteria):

* submit -> SSE replay + live -> ``run_completed`` -> the stored
  record carries the same scores as a direct ``Scheduler.run``;
* per-user limits queue a third run while two stream, users are
  independent;
* cancel mid-run yields ``cancelled`` with partial results persisted;
* an uncleanly killed server, restarted over the same database and
  cache directory, lists history and resubmits simulate only the jobs
  that never finished (cache-hit counters prove it).
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.progress import CacheHit, JobFinished, JobStarted, RunCompleted
from repro.core.scheduler import Scheduler
from repro.errors import ServiceError
from service_helpers import GateExecutor, StepExecutor, tiny_spec


def raw_request(port, method, path, body=None, headers=None):
    """Bypass ServiceClient for malformed-request tests; (status, dict)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = response.read().decode("utf-8")
        try:
            data = json.loads(payload)
        except ValueError:
            data = {"raw": payload}
        return response.status, data
    finally:
        connection.close()


class TestHealthAndErrors:
    def test_health_reports_version(self, harness_factory):
        harness = harness_factory()
        health = harness.client().health()
        assert health["status"] == "ok"
        assert isinstance(health["version"], str)

    def test_unknown_run_is_404_everywhere(self, harness_factory):
        harness = harness_factory()
        client = harness.client()
        for call in (
            lambda: client.run("feedface0000"),
            lambda: client.cancel("feedface0000"),
            lambda: list(client.events("feedface0000")),
        ):
            with pytest.raises(ServiceError, match="404"):
                call()

    def test_bad_requests_are_client_errors(self, harness_factory):
        harness = harness_factory()
        port = harness.port
        status, _ = raw_request(port, "GET", "/api/nope")
        assert status == 404
        status, _ = raw_request(port, "DELETE", "/api/runs")
        assert status == 405
        status, data = raw_request(
            port, "POST", "/api/runs", body=b"not json",
            headers={"Content-Length": "8"},
        )
        assert status == 400
        assert "JSON" in data["error"]
        status, data = raw_request(
            port, "POST", "/api/runs", body=b'{"nope": 1}',
            headers={"Content-Length": "11"},
        )
        assert status == 400
        assert "spec" in data["error"]
        status, data = raw_request(
            port, "POST", "/api/runs", body=b"{}",
            headers={"Content-Length": "abc"},
        )
        assert status == 400
        assert "content-length" in data["error"]
        assert harness.client().health()["status"] == "ok"

    def test_invalid_spec_is_rejected_with_the_reason(self, harness_factory):
        harness = harness_factory()
        with pytest.raises(ServiceError, match="invalid spec") as excinfo:
            harness.client().submit({"tools": ["no-such-tool"]})
        assert "400" in str(excinfo.value)
        assert harness.client().runs() == []  # nothing persisted

    def test_blank_x_user_is_rejected_not_anonymous(self, harness_factory):
        """A blank/whitespace X-User used to fall through ``... or
        None`` and get billed to the shared "anonymous" bucket; it is
        a misconfigured client and must be a 400 on every route."""
        harness = harness_factory()
        port = harness.port
        body = json.dumps({"spec": tiny_spec().to_dict()}).encode("utf-8")
        for method, path, payload in (
            ("POST", "/api/runs", body),
            ("GET", "/api/runs", None),
        ):
            headers = {"X-User": "   "}
            if payload is not None:
                headers["Content-Length"] = str(len(payload))
            status, data = raw_request(port, method, path, payload, headers)
            assert status == 400, (method, path)
            assert "X-User" in data["error"]
        assert harness.client().runs() == []  # nothing persisted

    def test_padded_x_user_is_normalized(self, harness_factory):
        harness = harness_factory()
        body = json.dumps({"spec": tiny_spec().to_dict()}).encode("utf-8")
        status, data = raw_request(
            harness.port, "POST", "/api/runs", body,
            {"X-User": "  alice  ", "Content-Length": str(len(body))},
        )
        assert status == 202
        assert data["user"] == "alice"
        record = harness.client().wait(data["run_id"])
        assert record["user"] == "alice"


class TestJourney:
    def test_submit_stream_and_results_match_direct_run(self, harness_factory):
        harness = harness_factory()
        client = harness.client(user="alice")
        spec = tiny_spec()
        jobs = spec.jobs()

        run_id = client.submit(spec)
        events = list(client.events(run_id))

        started = [e for e in events if isinstance(e, JobStarted)]
        finished = [e for e in events if isinstance(e, JobFinished)]
        assert [e.job for e in started] == jobs
        assert [e.job for e in finished] == jobs
        terminal = events[-1]
        assert isinstance(terminal, RunCompleted)
        assert terminal.total == len(jobs)
        assert terminal.simulated == len(jobs)
        assert not terminal.cancelled

        record = client.run(run_id)
        assert record["state"] == "completed"
        assert record["user"] == "alice"
        assert record["simulated"] == len(jobs)
        assert record["cache_hits"] == 0
        direct = Scheduler().run(spec).to_dict()
        assert record["result"]["scores"] == direct["scores"]

        # a late subscriber replays the identical stream
        replay = list(client.events(run_id))
        assert [type(e) for e in replay] == [type(e) for e in events]
        assert replay[-1] == terminal

        listing = client.runs()
        assert [r["run_id"] for r in listing] == [run_id]
        assert listing[0]["state"] == "completed"
        assert client.runs(user="alice") == listing
        assert client.runs(user="bob") == []

    def test_resubmission_hits_the_shared_cache(self, harness_factory):
        harness = harness_factory()
        client = harness.client()
        spec = tiny_spec()
        first = client.submit(spec)
        client.wait(first)
        second = client.submit(spec)
        final = client.wait(second)
        assert final["state"] == "completed"
        assert final["user"] == "anonymous"  # no X-User header sent
        assert final["simulated"] == 0
        assert final["cache_hits"] == len(spec.jobs())
        hits = [e for e in client.events(second) if isinstance(e, CacheHit)]
        assert len(hits) == len(spec.jobs())
        assert final["spec_hash"] == client.run(first)["spec_hash"]


class TestAdmissionOverHttp:
    def test_per_user_limit_queues_and_users_are_independent(
        self, harness_factory
    ):
        gate = GateExecutor()
        cache = ResultCache()
        harness = harness_factory(
            scheduler_factory=lambda: Scheduler(executor=gate, cache=cache),
            per_user_limit=1,
        )
        alice = harness.client(user="alice")
        bob = harness.client(user="bob")
        try:
            first = alice.submit(tiny_spec())
            second = alice.submit(tiny_spec(tools=("express",)))
            third = bob.submit(tiny_spec())
            assert alice.run(first)["state"] == "running"
            assert alice.run(second)["state"] == "queued"
            assert bob.run(third)["state"] == "running"
            assert {r["run_id"] for r in alice.runs(user="alice")} == {
                first, second
            }
            # cancelling the queued run frees nothing but ends it
            cancelled = alice.cancel(second)
            assert cancelled["state"] == "cancelled"
            gate.release.set()
            assert alice.wait(first)["state"] == "completed"
            assert bob.wait(third)["state"] == "completed"
            assert alice.run(second)["state"] == "cancelled"
        finally:
            gate.release.set()


class TestCancelOverHttp:
    def test_cancel_mid_run_keeps_partial_results(self, harness_factory):
        step = StepExecutor()
        harness = harness_factory(
            scheduler_factory=lambda: Scheduler(
                executor=step, cache=ResultCache()
            ),
        )
        client = harness.client()
        spec = tiny_spec()  # 5 jobs
        try:
            run_id = client.submit(spec)
            step.steps.release(2)
            stream = client.events(run_id)
            for event in stream:
                if isinstance(event, JobStarted) and event.index == 2:
                    break
            client.cancel(run_id)
            step.steps.release(1)  # the in-flight third job finishes
            terminal = None
            for event in stream:
                terminal = event
            stream.close()
            assert isinstance(terminal, RunCompleted)
            assert terminal.cancelled
            assert terminal.simulated == 3
            record = client.run(run_id)
            assert record["state"] == "cancelled"
            assert record["simulated"] == 3
            assert record["result"]["partial"] is True
            samples = record["result"]["samples"]
            assert len(samples) == 3
            assert all(s["seconds"] > 0.0 for s in samples)
        finally:
            step.steps.release(100)


class TestRestartResume:
    def test_killed_server_resumes_only_unfinished_jobs(
        self, harness_factory, tmp_path
    ):
        cache_dir = str(tmp_path / "service-cache")
        spec = tiny_spec(tools=("p4", "express"))  # 10 jobs
        step = StepExecutor()

        first = harness_factory(
            scheduler_factory=lambda: Scheduler(
                executor=step, cache=ResultCache.on_disk(cache_dir)
            ),
            db_name="shared.db",
        )
        client = first.client()
        run_id = client.submit(spec)
        step.steps.release(3)
        finished = 0
        stream = client.events(run_id)
        for event in stream:  # the cache holds a value before its event
            if isinstance(event, JobFinished):
                finished += 1
                if finished == 3:
                    break
        stream.close()
        first.stop(graceful=False)  # unclean kill: row left 'running'

        second = harness_factory(
            scheduler_factory=lambda: Scheduler(
                cache=ResultCache.on_disk(cache_dir)
            ),
            db_name="shared.db",
        )
        assert second.recovered == 1  # the orphan was reconciled
        client2 = second.client()

        history = client2.runs()
        assert [r["run_id"] for r in history] == [run_id]
        orphan = client2.run(run_id)
        assert orphan["state"] == "failed"
        assert "unclean" in orphan["error"]
        # history still streams: one synthesized terminal event
        assert len(list(client2.events(run_id))) == 1

        resubmit = client2.submit(spec)
        final = client2.wait(resubmit)
        assert final["state"] == "completed"
        assert final["cache_hits"] == 3  # the jobs the killed run finished
        assert final["simulated"] == len(spec.jobs()) - 3
        direct = Scheduler().run(spec).to_dict()
        assert final["result"]["scores"] == direct["scores"]


class TestGracefulShutdown:
    def test_shutdown_cancels_running_and_queued_then_refuses(
        self, harness_factory
    ):
        gate = GateExecutor()
        harness = harness_factory(
            scheduler_factory=lambda: Scheduler(
                executor=gate, cache=ResultCache()
            ),
            per_user_limit=1,
        )
        client = harness.client(user="alice")
        running = client.submit(tiny_spec())
        queued = client.submit(tiny_spec(tools=("express",)))
        assert client.run(queued)["state"] == "queued"

        stopper = threading.Thread(
            target=harness.stop, kwargs={"graceful": True}
        )
        stopper.start()
        time.sleep(0.2)  # let shutdown cancel the handles first
        gate.release.set()  # then the in-flight job drains
        stopper.join(30)
        assert not stopper.is_alive()

        # stop() closed the store; reopen the file to inspect history
        from repro.service.store import RunStore

        with RunStore(str(harness.store.path)) as reopened:
            assert reopened.get(running)["state"] == "cancelled"
            assert reopened.get(queued)["state"] == "cancelled"
            assert reopened.get(queued)["error"] == "cancelled while queued"
