"""The asyncio HTTP service in front of the result store.

A deliberately small HTTP/1.1 server on raw asyncio streams — stdlib only,
one request per connection, ``Connection: close`` — because the protocol
surface is a handful of JSON routes and the interesting machinery lives in
:mod:`repro.serve.queueing`:

========  ==================  ============================================
method    path                behavior
========  ==================  ============================================
GET       ``/healthz``        liveness + drain state + schema tag
GET       ``/metrics``        :mod:`repro.obs` snapshot + derived numbers
GET       ``/jobs/<id>``      sweep recovery: finished/pending cells
                              replayed from the journal + store — answers
                              for sweeps accepted by an earlier (possibly
                              killed) process over the same store
POST      ``/v1/analytical``  closed-form query, evaluated inline (the
                              fast path: never touches the simulation lane)
POST      ``/v1/cell``        one simulation cell through the lane
POST      ``/v1/sweep``       many cells; ``"stream": true`` upgrades the
                              response to SSE with per-cell progress
========  ==================  ============================================

Multiple service processes may point at one ``store_root``: every sweep's
cells are journaled ``accepted`` under a deterministic job id, and (unless
``claim_stale_after=0``) each cold cell is *claimed* before it is queued,
so concurrent processes coalesce cross-process instead of computing the
cell twice — see :mod:`repro.serve.queueing` and
:mod:`repro.store.claims`.

Status codes: 400 malformed spec, 404/405 unknown route, 413 oversized
body, 429 per-client quota exhausted, 503 queue full or draining.

**Graceful drain**: on SIGTERM/SIGINT the listener closes, in-flight cells
finish, open responses are given a grace period, the store executor shuts
down, and the process exits 0 — so a supervisor rolling the service never
loses a computed-but-unwritten cell.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.serve.protocol import (
    SERVE_SCHEMA,
    AnalyticalQuery,
    CellSpec,
    ProtocolError,
    sweep_job_id,
)
from repro.serve.queueing import AdmissionError, CellOutcome, SimulationLane
from repro.serve.quotas import QuotaRegistry
from repro.serve.telemetry import ServiceSink
from repro.store.cache import ResultStore
from repro.store.claims import ClaimRegistry
from repro.store.journal import Journal
from repro.utils.validation import check_nonnegative, check_positive, check_positive_int

__all__ = ["ServeConfig", "SweepService", "run_server"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServeConfig:
    """Everything one service instance needs, validated at the boundary."""

    __slots__ = (
        "host",
        "port",
        "store_root",
        "lane_workers",
        "max_queue",
        "batch_max",
        "quota_rate",
        "quota_burst",
        "max_n",
        "max_reps",
        "max_p",
        "max_cells",
        "max_body",
        "executor_threads",
        "read_timeout",
        "drain_grace",
        "claim_stale_after",
        "claim_poll",
    )

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8321,
        store_root: str = "serve-cache",
        lane_workers: int = 2,
        max_queue: int = 64,
        batch_max: int = 8,
        quota_rate: float = 20.0,
        quota_burst: float = 40.0,
        max_n: int = 512,
        max_reps: int = 256,
        max_p: int = 1024,
        max_cells: int = 256,
        max_body: int = 1 << 20,
        executor_threads: int = 4,
        read_timeout: float = 30.0,
        drain_grace: float = 5.0,
        claim_stale_after: float = 30.0,
        claim_poll: float = 0.05,
    ) -> None:
        self.host = str(host)
        if isinstance(port, bool) or not isinstance(port, int) or not 0 <= port <= 65535:
            raise ValueError(f"port must be an integer in [0, 65535], got {port!r}")
        self.port = port
        self.store_root = str(store_root)
        self.lane_workers = check_positive_int("lane_workers", lane_workers)
        self.max_queue = check_positive_int("max_queue", max_queue)
        self.batch_max = check_positive_int("batch_max", batch_max)
        self.quota_rate = check_nonnegative("quota_rate", quota_rate)
        self.quota_burst = check_nonnegative("quota_burst", quota_burst)
        self.max_n = check_positive_int("max_n", max_n)
        self.max_reps = check_positive_int("max_reps", max_reps)
        self.max_p = check_positive_int("max_p", max_p)
        self.max_cells = check_positive_int("max_cells", max_cells)
        self.max_body = check_positive_int("max_body", max_body)
        self.executor_threads = check_positive_int("executor_threads", executor_threads)
        self.read_timeout = check_nonnegative("read_timeout", read_timeout)
        self.drain_grace = check_nonnegative("drain_grace", drain_grace)
        # 0 disables cross-process claims (single-instance deployments).
        self.claim_stale_after = check_nonnegative("claim_stale_after", claim_stale_after)
        self.claim_poll = check_positive("claim_poll", claim_poll)


class _HttpError(Exception):
    """Short-circuits a request with a status + JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class SweepService:
    """One service instance: store, quotas, claims, journal, lanes, HTTP front.

    ``clock`` is injectable for deterministic tests; when given it drives
    *both* the quota token buckets (normally ``time.monotonic``) and the
    claim heartbeats (normally ``time.time`` — wall time, because
    heartbeats must be comparable across processes).
    """

    def __init__(
        self, config: ServeConfig, *, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.config = config
        self.sink = ServiceSink()
        self.store = ResultStore(config.store_root, sink=self.sink)
        self.quotas = QuotaRegistry(
            config.quota_rate,
            config.quota_burst,
            clock=clock if clock is not None else time.monotonic,
        )
        self.journal = Journal(self.store, sink=self.sink)
        self.claims: Optional[ClaimRegistry] = None
        if config.claim_stale_after > 0:
            self.claims = ClaimRegistry(
                self.store,
                stale_after=config.claim_stale_after,
                clock=clock if clock is not None else time.time,
                sink=self.sink,
            )
        self._executor = ThreadPoolExecutor(
            max_workers=config.executor_threads, thread_name_prefix="repro-serve"
        )
        self.lane = SimulationLane(
            self.store,
            self.sink,
            self._executor,
            workers=config.lane_workers,
            max_queue=config.max_queue,
            batch_max=config.batch_max,
            claims=self.claims,
            journal=self.journal,
            claim_poll=config.claim_poll,
        )
        self._server: Optional["asyncio.Server"] = None
        self._draining = False
        self._stop = asyncio.Event()
        self._conn_tasks: Set["asyncio.Task[Any]"] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and spawn lane workers; returns (host, port)."""
        await self.lane.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to drain and exit (signal-handler safe)."""
        self._stop.set()

    async def serve_forever(self, *, handle_signals: bool = True) -> None:
        """Serve until :meth:`request_stop` (or SIGTERM/SIGINT), then drain."""
        if handle_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover  # repro: noqa[R-SILENT]
                    # Platforms without loop signal support still stop via
                    # request_stop().
                    pass
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, release the executor."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.lane.drain()
        pending = {t for t in self._conn_tasks if not t.done()}
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_grace)
        self._executor.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        """True once shutdown began; ``/healthz`` reports it."""
        return self._draining or self.lane.draining

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError):  # repro: noqa[R-SILENT]
            pass  # client went away; nobody left to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover  # repro: noqa[R-SILENT]
                pass  # double-close on a socket the peer already tore down

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = time.monotonic()
        try:
            method, path, headers, body = await self._read_request(reader)
        except _HttpError as exc:
            self._write_json(writer, exc.status, {"error": exc.message})
            await writer.drain()
            return
        client = headers.get("x-repro-client", "anonymous")
        try:
            await self._dispatch(method, path, client, body, writer, start)
        except _HttpError as exc:
            self._write_json(writer, exc.status, {"error": exc.message})
        except ProtocolError as exc:
            self.sink.rejected("invalid")
            self._write_json(writer, 400, {"error": str(exc)})
        except AdmissionError as exc:
            self._write_json(writer, 503, {"error": str(exc), "reason": exc.reason})
        except Exception as exc:  # never leak a traceback as a hung socket
            self._write_json(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        timeout = self.config.read_timeout or None
        request_line = await asyncio.wait_for(reader.readline(), timeout)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length {length_text!r}") from None
        if length < 0 or length > self.config.max_body:
            raise _HttpError(413, f"body exceeds {self.config.max_body} bytes")
        body = await asyncio.wait_for(reader.readexactly(length), timeout) if length else b""
        return method, path, headers, body

    def _write_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, Any]:
        try:
            parsed = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise _HttpError(400, "body must be a JSON object")
        return parsed

    def _check_quota(self, client: str, lane: str, cost: float = 1.0) -> None:
        if not self.quotas.allow(client, lane, cost):
            self.sink.rejected("quota")
            raise _HttpError(429, f"quota exhausted for client {client!r} on lane {lane!r}")

    # -- routing ------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        client: str,
        body: bytes,
        writer: asyncio.StreamWriter,
        start: float,
    ) -> None:
        if path == "/healthz" and method == "GET":
            self._write_json(
                writer,
                200,
                {"status": "draining" if self.draining else "ok", "schema": SERVE_SCHEMA},
            )
            return
        if path == "/metrics" and method == "GET":
            self._write_json(writer, 200, self.metrics_payload())
            return
        if path == "/v1/analytical" and method == "POST":
            await self._route_analytical(client, body, writer, start)
            return
        if path == "/v1/cell" and method == "POST":
            await self._route_cell(client, body, writer)
            return
        if path == "/v1/sweep" and method == "POST":
            await self._route_sweep(client, body, writer)
            return
        if path.startswith("/jobs/"):
            if method != "GET":
                raise _HttpError(405, f"method {method} not allowed on {path}")
            await self._route_job(path[len("/jobs/") :], writer)
            return
        if path in ("/healthz", "/metrics", "/v1/analytical", "/v1/cell", "/v1/sweep"):
            raise _HttpError(405, f"method {method} not allowed on {path}")
        raise _HttpError(404, f"unknown path {path}")

    async def _route_job(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        """``GET /jobs/<id>``: sweep status replayed from journal + store.

        Deliberately independent of any in-memory state, so a fresh
        process answers for jobs accepted before a crash or restart.
        """
        if not job_id:
            raise _HttpError(404, "missing job id")
        status = await asyncio.get_running_loop().run_in_executor(
            self._executor, partial(self.journal.job_status, job_id, store=self.store)
        )
        if status is None:
            raise _HttpError(404, f"unknown job {job_id}")
        self._write_json(writer, 200, status)

    async def _route_analytical(
        self, client: str, body: bytes, writer: asyncio.StreamWriter, start: float
    ) -> None:
        if self.draining:
            raise AdmissionError("draining", "service is draining; retry elsewhere")
        self._check_quota(client, "analytical")
        query = AnalyticalQuery.parse(self._parse_body(body), max_p=self.config.max_p)
        self.sink.request("analytical")
        result = query.evaluate()
        self.sink.observe_latency("analytical", time.monotonic() - start)
        self._write_json(writer, 200, result)

    async def _route_cell(
        self, client: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        self._check_quota(client, "simulation")
        cell = self._parse_cell(self._parse_body(body))
        self.sink.request("simulation")
        outcome = await self.lane.submit(cell)
        self._write_json(writer, 200, outcome.payload())

    def _parse_cell(self, raw: Dict[str, Any]) -> CellSpec:
        cfg = self.config
        return CellSpec.parse(raw, max_n=cfg.max_n, max_reps=cfg.max_reps, max_p=cfg.max_p)

    async def _route_sweep(
        self, client: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        parsed = self._parse_body(body)
        raw_cells = parsed.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            raise ProtocolError("sweep needs a non-empty 'cells' list")
        if len(raw_cells) > self.config.max_cells:
            raise ProtocolError(
                f"sweep exceeds the {self.config.max_cells}-cell limit"
            )
        stream = bool(parsed.get("stream", False))
        self._check_quota(client, "simulation", cost=float(len(raw_cells)))
        cells = [self._parse_cell(raw) for raw in raw_cells]
        self.sink.request("simulation")
        job_id = await self._journal_accepted(cells)
        if stream:
            await self._stream_sweep(cells, job_id, writer)
        else:
            results = await asyncio.gather(
                *(self._submit_safe(cell) for cell in cells)
            )
            self._write_json(
                writer,
                200,
                {"cells": results, "counts": _status_counts(results), "job": job_id},
            )

    async def _journal_accepted(self, cells: List[CellSpec]) -> str:
        """Journal every sweep cell ``accepted`` under a deterministic job id.

        The id depends only on the cell set, so re-submitting the same
        sweep (to this process or any peer on the same store) maps onto
        the same recoverable job.
        """
        job_id = sweep_job_id(cells)
        fingerprints = sorted({cell.fingerprint() for cell in cells})
        owner = None if self.claims is None else self.claims.owner
        await asyncio.get_running_loop().run_in_executor(
            self._executor,
            partial(
                self.journal.append_many,
                "accepted",
                fingerprints,
                job=job_id,
                owner=owner,
            ),
        )
        return job_id

    async def _submit_safe(self, cell: CellSpec) -> Dict[str, Any]:
        """One sweep cell's payload; admission failures become row entries."""
        try:
            outcome = await self.lane.submit(cell)
        except AdmissionError as exc:
            return {
                "fingerprint": cell.fingerprint(),
                "status": "rejected",
                "summary": None,
                "error": str(exc),
                "reason": exc.reason,
            }
        return outcome.payload()

    async def _stream_sweep(
        self, cells: List[CellSpec], job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """SSE: one ``cell`` event per finished cell, then ``done``."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        _write_sse(writer, "accepted", {"cells": len(cells), "job": job_id})
        await writer.drain()

        async def indexed(i: int, cell: CellSpec) -> Tuple[int, Dict[str, Any]]:
            return i, await self._submit_safe(cell)

        tasks = [
            asyncio.ensure_future(indexed(i, cell)) for i, cell in enumerate(cells)
        ]
        results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
        for finished in asyncio.as_completed(tasks):
            index, payload = await finished
            results[index] = payload
            _write_sse(writer, "cell", {"index": index, **payload})
            await writer.drain()
        done = [r for r in results if r is not None]
        _write_sse(writer, "done", {"counts": _status_counts(done)})
        await writer.drain()

    # -- metrics ------------------------------------------------------------

    def metrics_payload(self) -> Dict[str, Any]:
        """The ``/metrics`` body: raw obs snapshot plus derived numbers."""
        counts = self.store.counts
        return {
            "metrics": self.sink.snapshot(),
            "derived": {
                "hit_rate": self.sink.hit_rate(),
                "queue_depth": self.lane.queue_depth,
                "in_flight": self.lane.in_flight,
                "coalesced": self.sink.counter_value("serve_coalesced", "simulation"),
                "latency": self.sink.latency_quantiles(),
                "store": {
                    "hits": counts.hits,
                    "misses": counts.misses,
                    "puts": counts.puts,
                    "corrupt": counts.corrupt,
                },
                "claims": None if self.claims is None else dict(self.claims.counts),
            },
            "draining": self.draining,
        }


def _status_counts(rows: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for row in rows:
        status = str(row.get("status"))
        counts[status] = counts.get(status, 0) + 1
    return counts


def _write_sse(writer: asyncio.StreamWriter, event: str, data: Dict[str, Any]) -> None:
    payload = json.dumps(data, sort_keys=True)
    writer.write(f"event: {event}\ndata: {payload}\n\n".encode("utf-8"))


def run_server(config: ServeConfig) -> int:
    """Boot a service, print the bound address, serve until SIGTERM/SIGINT.

    The ``repro-serve`` CLI entry point's body.  Prints
    ``listening on http://host:port`` once ready (machine-parsable — the
    smoke harness and tests scrape it, and ``port=0`` binds an ephemeral
    port) and ``drained cleanly`` after a graceful shutdown; returns the
    process exit code.
    """

    async def _amain() -> None:
        service = SweepService(config)
        host, port = await service.start()
        print(f"repro-serve: listening on http://{host}:{port}", flush=True)
        await service.serve_forever()

    asyncio.run(_amain())
    print("repro-serve: drained cleanly", flush=True)
    return 0
