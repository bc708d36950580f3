"""``repro serve``: the stdlib-only HTTP experiment service.

One :class:`ReproService` wraps a ``ThreadingHTTPServer`` (handler
threads) around a :class:`~repro.service.jobs.JobManager` (one worker
thread + the digest-addressed result cache).  No third-party web
framework: the container's stdlib is the whole dependency surface.

Endpoints (all JSON unless noted; see ``docs/SCENARIOS.md`` for curl
examples)::

    GET  /healthz            liveness + version
    GET  /experiments        registry ids a scenario may target
    GET  /metrics            the server's metrics snapshot
                             (counters/gauges/histograms) -- the
                             counter-equality proof that repeat
                             submissions never touch the engine
    POST /scenarios          submit a scenario document
                             200 -> served from cache, results inline
                             202 -> queued, poll /jobs/<id>
                             400 -> schema violation / non-JSON param
                             (the error names the offending key)
    GET  /jobs               every job, submission order
    GET  /jobs/<id>          one job's status; on a queued or running
                             job it first waits up to 50 ms for the
                             job to finish, so a poller that never
                             sleeps is paced and hears of completion
                             at once
    GET  /jobs/<id>/result   results (409 until the job is terminal)
    GET  /jobs/<id>/events   the job's JSONL progress stream
                             (``?follow=1`` keeps the connection open
                             until the job finishes, tail -f style)

Scenario identity is the cache digest: submitting the same scenario
twice answers the second request straight from :class:`ResultCache`
with ``state == "cached"`` and zero engine work -- ``make serve-smoke``
asserts ``engine.*``/``runtime.*`` counters are byte-equal across the
resubmission.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.analysis.registry import available_experiments
from repro.obs.jsonl import JsonlCursor
from repro.obs.logger import get_logger
from repro.obs.metrics import counter, get_registry
from repro.scenarios.schema import Scenario, ScenarioError
from repro.service.jobs import JobManager

_log = get_logger("service.server")

__all__ = ["ReproService", "serve"]

#: Maximum accepted request body (a scenario document is tiny; anything
#: bigger is a mistake or abuse).
_MAX_BODY_BYTES = 1 << 20

#: Longest ``GET /jobs/<id>`` holds its answer while the job is queued or
#: running; it returns early the moment the job finishes.
_STATUS_WAIT_S = 0.05


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`ReproService`."""

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response goes out as headers then body (and the
    # events stream as many small writes); with Nagle's algorithm each
    # later write waits for the client's delayed ACK, ~40 ms per
    # keep-alive request.
    disable_nagle_algorithm = True
    server_version = f"repro-serve/{__version__}"
    service: "ReproService"  # injected by ReproService._make_handler

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "http",
                extra={"request": format % args, "client": self.client_address[0]},
            )

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = (json.dumps(payload, indent=1) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        counter("service.http.errors")
        self._send_json(status, {"error": message})

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        counter("service.http.requests")
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["healthz"]:
                self._send_json(
                    200, {"status": "ok", "version": __version__}
                )
            elif parts == ["experiments"]:
                self._send_json(
                    200, {"experiments": available_experiments()}
                )
            elif parts == ["metrics"]:
                self._send_json(200, get_registry().snapshot())
            elif parts == ["jobs"]:
                self._send_json(
                    200, {"jobs": self.service.manager.list_jobs()}
                )
            elif len(parts) >= 2 and parts[0] == "jobs":
                self._job_route(parts[1], parts[2:], url)
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 -- handler must answer
            _log.error(
                "handler error",
                extra={"path": self.path, "error": f"{type(exc).__name__}: {exc}"},
            )
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _job_route(self, job_id: str, rest: list[str], url: Any) -> None:
        job = self.service.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if not rest:
            job.finished.wait(_STATUS_WAIT_S)  # no wait once the job has run
            self._send_json(200, job.status())
        elif rest == ["result"]:
            if not job.done:
                self._error(
                    409,
                    f"job {job_id} is still {job.state}; poll "
                    f"/jobs/{job_id} or stream /jobs/{job_id}/events",
                )
            elif job.results is None:
                self._error(409, f"job {job_id} failed: {job.error}")
            else:
                payload = job.status()
                payload["results"] = job.results
                self._send_json(200, payload)
        elif rest == ["events"]:
            query = parse_qs(url.query)
            follow = query.get("follow", ["0"])[-1] not in ("0", "", "false")
            self._stream_events(job, follow=follow)
        else:
            self._error(404, f"no such endpoint: {url.path}")

    def _stream_events(self, job: Any, *, follow: bool) -> None:
        """Send the job's JSONL progress file, optionally tail -f style.

        The stream is close-delimited (``Connection: close``): with
        ``follow`` the handler keeps polling the file and flushing new
        whole lines until the job reaches a terminal state and the
        file is drained; its wait between reads ends the moment the job
        does.  A torn trailing line on a *finished* job can never be
        completed by the writer, so after a short grace period
        (two 20 ms re-reads, under one 50 ms poll interval) the partial
        tail is flushed as-is and the stream closes -- it must not spin
        waiting for a newline that will never arrive.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        cursor = JsonlCursor(job.events_path)
        grace = 2
        while True:
            lines = cursor.read()
            if lines:
                self.wfile.write(lines)
                self.wfile.flush()
            if not follow:
                return
            if not job.done:
                job.finished.wait(0.02 if lines or cursor.pending else 0.05)
            elif not cursor.pending:
                if not lines:
                    return  # else drain what accumulated after the flip
            elif grace > 0:
                grace -= 1  # the writer may be mid-line; give it a beat
                time.sleep(0.02)
            else:
                self.wfile.write(cursor.pending)
                self.wfile.flush()
                return

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        counter("service.http.requests")
        url = urlparse(self.path)
        if url.path.rstrip("/") != "/scenarios":
            self._error(404, f"no such endpoint: {url.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "invalid Content-Length")
            return
        if length > _MAX_BODY_BYTES:
            self._error(413, f"scenario document over {_MAX_BODY_BYTES} bytes")
            return
        body = self.rfile.read(length)
        try:
            payload = json.loads(body or b"null")
        except ValueError as exc:
            self._error(400, f"invalid JSON: {exc}")
            return
        # The schema boundary: violations (unknown keys/versions, bad
        # execution options, non-JSON-serialisable params) are rejected
        # here with the key-naming message -- never a 500 from a worker.
        try:
            scenario = Scenario.from_dict(payload)
            submission = self.service.manager.submit(scenario)
        except (ScenarioError, TypeError) as exc:
            counter("service.submissions.rejected")
            self._error(400, str(exc))
            return
        status = 200 if submission["state"] == "cached" else 202
        self._send_json(status, submission)


class ReproService:
    """The HTTP server + job manager pair behind ``repro serve``.

    Usable embedded (tests, notebooks)::

        service = ReproService(state_dir, port=0)
        service.start()          # background thread
        ... HTTP against service.url ...
        service.close()
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.manager = JobManager(state_dir)
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproService":
        """Serve on a background thread (embedded use); returns self."""
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        _log.info("service started", extra={"url": self.url})
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI)."""
        _log.info("service started", extra={"url": self.url})
        self.server.serve_forever()

    def close(self) -> None:
        """Stop accepting, finish the current job, release the port."""
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.manager.shutdown()


def serve(
    state_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
) -> None:
    """Run the service until interrupted (the ``repro serve`` command)."""
    service = ReproService(state_dir, host=host, port=port)
    print(
        f"repro service on {service.url} "
        f"(state in {Path(state_dir).resolve()}; Ctrl-C to stop)"
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.close()
