"""A stdlib HTTP client for the experiment service.

:class:`ServiceClient` speaks the wire format documented in
``docs/SCENARIOS.md`` using nothing but :mod:`urllib` -- it backs
``repro submit``, the serve smoke driver, and the service tests, and
is small enough to vendor into a notebook.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterator
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.obs.jsonl import iter_jsonl

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx service response; carries the server's error message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    Args:
        base_url: e.g. ``http://127.0.0.1:8765``.
        timeout_s: Per-request socket timeout.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- plumbing ----------------------------------------------------------

    def _request(
        self, path: str, *, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        request = Request(f"{self.base_url}{path}")
        if payload is not None:
            request.data = json.dumps(payload).encode()
            request.add_header("Content-Type", "application/json")
        try:
            with urlopen(request, timeout=self.timeout_s) as response:
                return json.loads(response.read())
        except HTTPError as exc:
            body = exc.read()
            try:
                message = json.loads(body)["error"]
            except (ValueError, KeyError, TypeError):
                message = body.decode(errors="replace") or exc.reason
            raise ServiceError(exc.code, message) from None
        except URLError as exc:
            raise ServiceError(
                0, f"cannot reach {self.base_url}: {exc.reason}"
            ) from None

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self._request("/healthz")

    def experiments(self) -> list[str]:
        return self._request("/experiments")["experiments"]

    def metrics(self) -> dict[str, Any]:
        """The server's metrics snapshot (counters/gauges/histograms)."""
        return self._request("/metrics")

    def submit(self, scenario: dict[str, Any]) -> dict[str, Any]:
        """POST a scenario document; returns the submission response.

        ``state == "cached"`` means results came back inline with zero
        engine work; ``state == "queued"`` means poll ``job``.

        Raises:
            ServiceError: Rejected at the schema boundary (the message
                names the offending key) or transport failure.
        """
        return self._request("/scenarios", payload=scenario)

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("/jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request(f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict[str, Any]:
        """The terminal job's status + results (409 while running)."""
        return self._request(f"/jobs/{job_id}/result")

    def wait(self, job_id: str, *, timeout_s: float = 120.0) -> dict[str, Any]:
        """Poll until the job is terminal; returns its final status.

        No sleep between polls: the server holds each status answer up
        to 50 ms while the job runs, and answers the moment it ends.

        Raises:
            TimeoutError: Still running after ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.job(job_id)
            if status["state"] in ("completed", "failed", "cached"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout_s}s"
                )

    def stream_events(
        self, job_id: str, *, follow: bool = True
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's JSONL progress events as they arrive.

        With ``follow`` the stream ends when the job reaches a terminal
        state and the file is drained (the server closes the
        connection).  Unparseable lines (a torn tail) are skipped.
        """
        suffix = "?follow=1" if follow else ""
        request = Request(f"{self.base_url}/jobs/{job_id}/events{suffix}")
        try:
            with urlopen(request, timeout=self.timeout_s) as response:
                for record in iter_jsonl(response):
                    if record is not None:
                        yield record
        except HTTPError as exc:
            body = exc.read()
            try:
                message = json.loads(body)["error"]
            except (ValueError, KeyError, TypeError):
                message = body.decode(errors="replace") or exc.reason
            raise ServiceError(exc.code, message) from None
