"""Blocking client for ``repro-serve`` plus an in-process server harness.

:class:`ServeClient` is the supported way to talk to the service from
Python — tests and the CI smoke harness go through it, so its request
shapes double as executable
documentation of the wire protocol.  It is plain :mod:`http.client`
(stdlib only, one connection per request, matching the server's
``Connection: close``); errors surface as :class:`ServeError` carrying the
HTTP status and decoded body.

:class:`ServerThread` boots a full :class:`~repro.serve.service.SweepService`
on a private event loop in a daemon thread — an ephemeral port and a real
TCP socket, no mocking — so a test can exercise the exact code path
production traffic takes and still tear down in milliseconds.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.serve.service import ServeConfig, SweepService

__all__ = ["ServeClient", "ServeError", "ServerThread", "wait_until_healthy"]


class ServeError(RuntimeError):
    """A non-2xx response: HTTP ``status`` plus the decoded JSON ``payload``."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServeClient:
    """Thin blocking wrapper over the service's routes."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "anonymous",
        timeout: float = 30.0,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.client_id = str(client_id)
        self.timeout = float(timeout)

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        conn = self._connect()
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(
                method, path, body=payload, headers={"X-Repro-Client": self.client_id}
            )
            response = conn.getresponse()
            decoded = _decode_json(response.read())
            if response.status >= 400:
                raise ServeError(response.status, decoded)
            return decoded
        finally:
            conn.close()

    # -- routes -------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/<id>`` — sweep recovery status from the journal."""
        return self._request("GET", f"/jobs/{job_id}")

    def analytical(self, query: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/analytical`` — closed-form fast path."""
        return self._request("POST", "/v1/analytical", query)

    def cell(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/cell`` — one simulation cell through the lane."""
        return self._request("POST", "/v1/cell", spec)

    def sweep(self, cells: List[Dict[str, Any]]) -> Dict[str, Any]:
        """``POST /v1/sweep`` (buffered): all outcomes in request order."""
        return self._request("POST", "/v1/sweep", {"cells": cells})

    def sweep_stream(
        self, cells: List[Dict[str, Any]]
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """``POST /v1/sweep`` with ``"stream": true``: yields SSE events.

        Yields ``(event, data)`` pairs — ``accepted``, then one ``cell``
        per finished cell in completion order, then ``done``.
        """
        conn = self._connect()
        try:
            conn.request(
                "POST",
                "/v1/sweep",
                body=json.dumps({"cells": cells, "stream": True}),
                headers={"X-Repro-Client": self.client_id},
            )
            response = conn.getresponse()
            if response.status >= 400:
                raise ServeError(response.status, _decode_json(response.read()))
            event: Optional[str] = None
            while True:
                line = response.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event: "):
                    event = text[len("event: ") :]
                elif text.startswith("data: ") and event is not None:
                    yield event, _decode_json(text[len("data: ") :].encode("utf-8"))
                    if event == "done":
                        break
                    event = None
        finally:
            conn.close()


def _decode_json(raw: bytes) -> Dict[str, Any]:
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(502, {"error": f"undecodable response: {exc}"}) from exc
    if not isinstance(decoded, dict):
        raise ServeError(502, {"error": f"expected a JSON object, got {decoded!r}"})
    return decoded


def wait_until_healthy(
    host: str, port: int, *, timeout: float = 10.0, interval: float = 0.05
) -> Dict[str, Any]:
    """Poll ``/healthz`` until the service answers; returns the health body.

    Raises :class:`TimeoutError` if the service never comes up — used by
    the smoke harness and tests between boot and first real request.
    """
    client = ServeClient(host, port, timeout=max(1.0, interval * 10))
    deadline = time.monotonic() + float(timeout)
    while True:
        try:
            return client.healthz()
        except (OSError, ServeError):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"service at {host}:{port} not healthy after {timeout}s"
                ) from None
            time.sleep(interval)


class ServerThread:
    """A real :class:`SweepService` on a private loop in a daemon thread.

    ``with ServerThread(config) as (host, port): ...`` boots the full
    service (ephemeral port when ``config.port == 0``), hands back the
    bound address, and on exit performs the same graceful drain a SIGTERM
    would — so everything the tests assert about drain behavior holds for
    production shutdown too.
    """

    def __init__(self, config: ServeConfig, *, clock: Optional[Any] = None) -> None:
        self.config = config
        self._clock = clock
        self.service: Optional[SweepService] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[Any] = None
        self._boot_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        """Boot the server thread; blocks until the socket is bound."""
        if self._thread is not None:
            raise RuntimeError("ServerThread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-test", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise TimeoutError("server thread failed to come up within 30s")
        if self._boot_error is not None:
            raise RuntimeError("server thread failed to boot") from self._boot_error
        assert self._address is not None
        return self._address

    def _run(self) -> None:
        import asyncio

        async def _amain() -> None:
            service = SweepService(self.config, clock=self._clock)
            self.service = service
            try:
                self._address = await service.start()
                self._loop = asyncio.get_running_loop()
            finally:
                self._ready.set()
            await service.serve_forever(handle_signals=False)

        try:
            asyncio.run(_amain())
        except BaseException as exc:  # surfaced to start()'s caller
            self._boot_error = exc
            self._ready.set()

    def stop(self) -> None:
        """Trigger the graceful drain and wait for the thread to exit."""
        if self._thread is None:
            return
        if self._loop is not None and self.service is not None:
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():  # pragma: no cover - drain hang is a bug
            raise RuntimeError("server thread did not drain within 30s")
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
