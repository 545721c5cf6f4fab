"""A stdlib-only asyncio HTTP server over the job registry.

Evaluation-as-a-service: the REST surface other tooling (and the
bundled :mod:`repro.service.client`) talks to.  No framework — a small
HTTP/1.1 request parser over ``asyncio.start_server`` is all a
single-process job server needs, and it keeps the subsystem free of
dependencies the container may not have.

The API::

    GET  /api/health              liveness + version
    GET  /api/runs                every run (newest first); ?user= filters
    POST /api/runs                submit an EvaluationSpec -> {run_id}
    GET  /api/runs/{id}           stored record + live progress snapshot
    POST /api/runs/{id}/cancel    cooperative cancel (queued or running)
    GET  /api/runs/{id}/events    Server-Sent Events: replay, then live

With a history database attached (``repro serve --history-db``) the
regression-intelligence views are readable too (404 otherwise)::

    GET  /api/history/runs            recorded runs; ?kind=&limit= filter
    GET  /api/history/runs/{ref}      one run (id, unique prefix, latest~N)
    GET  /api/history/diff            ?baseline=REF&current=REF cell diff
    GET  /api/history/leaderboard     ?window=&platform=&profile= rankings

Submissions carry ``{"spec": {...}}`` (the JSON form of
:class:`~repro.core.spec.EvaluationSpec`) and are accounted to the
``X-User`` header for per-user concurrency limits.  The SSE stream
frames each :class:`~repro.core.progress.RunEvent` as ::

    event: job_finished
    data: {"type": "job_finished", "job": {...}, ...}

— one frame per event, terminated by the ``run_completed`` frame.  The
registry's blocking event iterator is pumped on a thread per consumer
and handed to the asyncio side through ``call_soon_threadsafe``, so a
slow consumer never stalls the run (RunHandle buffers the replay) and
several consumers can follow one run live.

Connections are ``Connection: close`` — one request per connection.
That is deliberate: the expensive thing here is a simulation sweep,
not a TCP handshake, and it keeps the parser honest.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.core.progress import event_to_dict
from repro.errors import EvaluationError, ServiceError
from repro.service.registry import JobRegistry

__all__ = ["ServiceServer"]

_RUN_PATH = re.compile(r"^/api/runs/(?P<run_id>[0-9a-f]+)(?P<rest>/events|/cancel)?$")
_HISTORY_RUN_PATH = re.compile(r"^/api/history/runs/(?P<ref>[0-9a-f]+|latest(~[0-9]+)?)$")

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies above this are refused — a spec is a few KB, so a
#: larger payload is a mistake (or abuse), not a bigger evaluation.
MAX_BODY_BYTES = 1 << 20


class _HttpError(Exception):
    """Internal: unwind request handling into an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServiceServer(object):
    """The asyncio HTTP front of one :class:`JobRegistry`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` for the real one (what the CLI prints and the tests
    and the demo parse).
    """

    def __init__(
        self, registry: JobRegistry, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and tear down in-flight handlers.

        Long-lived SSE streams must be cancelled explicitly: since
        Python 3.12 ``Server.wait_closed`` waits for every open
        connection, and a stream following an unfinished run would
        hold shutdown open forever.
        """
        if self._server is None:
            return
        self._server.close()
        for task in list(self._connections):
            task.cancel()
        try:
            await asyncio.wait_for(self._server.wait_closed(), timeout=5)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass
        self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- request plumbing ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                method, target, headers, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away mid-request; nothing to answer
            except _HttpError as error:
                await self._respond_error(writer, error)
                return
            try:
                await self._route(method, target, headers, body, writer)
            except _HttpError as error:
                await self._respond_error(writer, error)
            except (ServiceError, EvaluationError) as error:
                # Library-level refusals the routes didn't map: client
                # errors, not server faults.
                await self._respond_error(writer, _HttpError(400, str(error)))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as error:  # noqa: BLE001 - last-resort 500
                await self._respond_error(
                    writer, _HttpError(500, "internal error: %s" % error)
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(reader) -> Tuple[str, str, dict, bytes]:
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "malformed request line %r" % request_line)
        method, target, _version = parts
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, "malformed header line %r" % line)
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(
                400, "malformed content-length %r" % headers["content-length"]
            )
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(400, "unacceptable content-length %d" % length)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "request body must be a JSON object")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise _HttpError(400, "request body is not valid JSON: %s" % error)
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return data

    async def _respond_json(self, writer, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n"
            "\r\n" % (status, _REASONS.get(status, "OK"), len(body))
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _respond_error(self, writer, error: _HttpError) -> None:
        try:
            await self._respond_json(
                writer, error.status, {"error": error.message}
            )
        except (ConnectionError, OSError):
            pass

    # -- routing -------------------------------------------------------

    async def _route(self, method, target, headers, body, writer) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        user = self._identity(headers)

        if path == "/api/health":
            self._require(method, "GET")
            await self._respond_json(
                writer, 200, {"status": "ok", "version": __version__}
            )
            return

        if path == "/api/runs":
            if method == "GET":
                query = parse_qs(url.query)
                query_user = (query.get("user") or [None])[0]
                runs = await asyncio.to_thread(self.registry.list_runs, query_user)
                await self._respond_json(writer, 200, {"runs": runs})
                return
            if method == "POST":
                await self._submit(writer, user, body)
                return
            raise _HttpError(405, "method %s not allowed on %s" % (method, path))

        if path == "/api/history" or path.startswith("/api/history/"):
            self._require(method, "GET")
            await self._route_history(path, parse_qs(url.query), writer)
            return

        match = _RUN_PATH.match(path)
        if match is None:
            raise _HttpError(404, "no route for %s" % path)
        run_id, rest = match.group("run_id"), match.group("rest")

        if rest is None:
            self._require(method, "GET")
            record = await self._registry_call(self.registry.status, run_id)
            await self._respond_json(writer, 200, record)
        elif rest == "/cancel":
            self._require(method, "POST")
            record = await self._registry_call(self.registry.cancel, run_id)
            await self._respond_json(writer, 202, record)
        else:  # /events
            self._require(method, "GET")
            await self._stream_events(writer, run_id)

    async def _route_history(self, path: str, query: dict, writer) -> None:
        """The read-only regression-intelligence views.

        All of them run the (briefly) blocking HistoryStore calls off
        the event loop, and all of them 404 when the server was
        started without ``--history-db`` — absent history is a missing
        resource, not a client mistake.
        """
        history = self.registry.history
        if history is None:
            raise _HttpError(
                404, "history is not enabled (start with --history-db)"
            )
        from repro.errors import HistoryError

        def param(name: str) -> Optional[str]:
            return (query.get(name) or [None])[0]

        try:
            if path == "/api/history/runs":
                kind = param("kind")
                limit = int(param("limit") or 50)
                runs = await asyncio.to_thread(
                    history.list_runs, kind, limit
                )
                await self._respond_json(writer, 200, {"runs": runs})
                return
            match = _HISTORY_RUN_PATH.match(path)
            if match is not None:
                def lookup():
                    return history.get(history.resolve(match.group("ref")))

                record = await asyncio.to_thread(lookup)
                await self._respond_json(writer, 200, record)
                return
            if path == "/api/history/diff":
                baseline, current = param("baseline"), param("current")
                if not baseline or not current:
                    raise _HttpError(
                        400, "diff needs ?baseline=REF&current=REF"
                    )
                from repro.history import diff_runs

                diff = await asyncio.to_thread(
                    diff_runs, history, baseline, current
                )
                await self._respond_json(writer, 200, diff.to_dict())
                return
            if path == "/api/history/leaderboard":
                from repro.history import leaderboards

                boards = await asyncio.to_thread(
                    leaderboards, history, int(param("window") or 10),
                    param("platform"), param("profile"),
                )
                await self._respond_json(
                    writer, 200,
                    {"leaderboards": [board.to_dict() for board in boards]},
                )
                return
        except ValueError as error:
            raise _HttpError(400, "bad query parameter: %s" % error)
        except HistoryError as error:
            message = str(error)
            missing = ("no recorded run" in message
                       or "needs" in message
                       or "unknown run" in message)
            raise _HttpError(404 if missing else 400, message)
        raise _HttpError(404, "no route for %s" % path)

    @staticmethod
    def _identity(headers) -> Optional[str]:
        """The request's user id: absent means anonymous, present
        means non-blank.  A blank/whitespace X-User is always a
        misconfigured client — rejecting it with a 400 beats silently
        billing it to the shared anonymous quota bucket."""
        if "x-user" not in headers:
            return None
        user = headers["x-user"].strip()
        if not user:
            raise _HttpError(400, "X-User header must not be blank")
        return user

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, "method %s not allowed here" % method)

    async def _registry_call(self, call, *args):
        """Run a (briefly) blocking registry call off the event loop,
        mapping "unknown run" to 404 and state refusals to 409."""
        try:
            return await asyncio.to_thread(call, *args)
        except ServiceError as error:
            message = str(error)
            raise _HttpError(404 if "unknown run" in message else 409, message)

    async def _submit(self, writer, user: Optional[str], body: bytes) -> None:
        data = self._json_body(body)
        if "spec" not in data or not isinstance(data["spec"], dict):
            raise _HttpError(400, 'submission must carry a "spec" JSON object')
        try:
            record = await asyncio.to_thread(
                self.registry.submit, user, data["spec"]
            )
        except EvaluationError as error:
            raise _HttpError(400, "invalid spec: %s" % error)
        except ServiceError as error:
            raise _HttpError(503, str(error))
        await self._respond_json(
            writer, 202,
            {"run_id": record["run_id"], "state": record["state"],
             "user": record["user"], "spec_hash": record["spec_hash"]},
        )

    # -- Server-Sent Events --------------------------------------------

    async def _stream_events(self, writer, run_id: str) -> None:
        # Resolve "unknown run" before committing to a 200 stream.
        await self._registry_call(self.registry.status, run_id)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()

        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        _END = object()

        def push(item) -> bool:
            # The loop may be gone if the server shut down mid-stream;
            # the pump just stops then.
            try:
                loop.call_soon_threadsafe(queue.put_nowait, item)
                return True
            except RuntimeError:
                return False

        def pump() -> None:
            # The registry iterator blocks between live events; feed
            # the loop from this thread.  A ServiceError here means the
            # run vanished mid-setup — end the stream, the consumer
            # re-queries state over the REST side.
            try:
                for event in self.registry.events(run_id):
                    if not push(event):
                        return
            except ServiceError:
                pass
            finally:
                push(_END)

        threading.Thread(
            target=pump, name="repro-service-sse-%s" % run_id, daemon=True
        ).start()

        while True:
            event = await queue.get()
            if event is _END:
                break
            payload = event_to_dict(event)
            frame = "event: %s\ndata: %s\n\n" % (
                payload["type"], json.dumps(payload, sort_keys=True)
            )
            writer.write(frame.encode("utf-8"))
            await writer.drain()
