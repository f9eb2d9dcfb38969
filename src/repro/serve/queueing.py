"""The simulation lane: cache-first, coalescing, priority-batched.

Every simulation cell a client POSTs flows through one
:class:`SimulationLane`:

1. **Cache probe** — ``store.get`` runs on the executor (file I/O off the
   event loop); a hit answers immediately with the cached summary.
2. **Coalescing** — cells are identified by their canonical key
   fingerprint; a second request for an in-flight fingerprint attaches to
   the first one's future instead of queueing again, so N identical sweeps
   cost one engine run.  The in-flight table is re-checked *after* the
   cache probe's await, closing the window where two misses for the same
   cell interleave on the loop.
3. **Admission** — a bounded priority queue; when ``max_queue`` cells are
   already waiting the submit fails with :class:`AdmissionError`
   (HTTP 503), which is what keeps a paper-scale grid from buffering
   unboundedly instead of pushing back.
4. **Batched compute** — lane workers pop up to ``batch_max`` cells in
   ``(-priority, arrival)`` order and run them through
   :func:`repro.experiments.parallel.run_cells` on the executor with the
   shared store as cache, so results are written back through the same
   content-addressed path every other runner uses.  A batch makes one
   runner call per figure point it holds, so a point's vector-kernel
   cells share one engine sweep.

When the lane is given a :class:`~repro.store.claims.ClaimRegistry`,
coalescing extends **across processes**: a miss claims its fingerprint
before queueing, so two service instances behind one store agree on which
one computes each cold cell.  The loser polls the store until the winner's
put lands (reported as ``"coalesced"``, same as in-process attachment) —
or until the winner dies, its claim goes stale, and the loser steals the
cell.  Claimed cells heartbeat while the engine batch runs and are
journaled ``claimed → computed → flushed`` when a
:class:`~repro.store.journal.Journal` is attached, which is what lets a
restarted process answer ``/jobs/<id>`` for sweeps it never saw.

The lane is single-loop asyncio plus a thread executor; the only
thread-shared objects are the store (internally locked), the claim
registry and journal (store-lock serialized), and the
:class:`~repro.serve.telemetry.ServiceSink` (internally locked).
"""

from __future__ import annotations

import asyncio
import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.parallel import CellResult, run_cells
from repro.experiments.runner import PlannedCell
from repro.serve.protocol import CellSpec
from repro.serve.telemetry import ServiceSink
from repro.store.cache import ResultStore
from repro.store.cells import CELL_KIND, summary_to_payload
from repro.store.claims import ClaimRegistry
from repro.store.journal import Journal
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["AdmissionError", "CellOutcome", "SimulationLane"]


class AdmissionError(RuntimeError):
    """The lane refused a cell; ``reason`` picks the HTTP status."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class CellOutcome:
    """Terminal result of one submitted cell, as seen by one requester.

    ``status`` is ``"hit"`` (served from cache), ``"computed"`` (this
    request triggered the engine run), ``"coalesced"`` (attached to another
    request's run) or ``"error"``; ``latency_s`` is *this requester's* wall
    wait, so coalesced requesters report their own latency even though the
    engine ran once.
    """

    __slots__ = ("fingerprint", "status", "summary", "error", "latency_s")

    def __init__(
        self,
        fingerprint: str,
        status: str,
        summary: Optional[Dict[str, Any]],
        error: Optional[str],
        latency_s: float,
    ) -> None:
        self.fingerprint = fingerprint
        self.status = status
        self.summary = summary
        self.error = error
        self.latency_s = latency_s

    def payload(self) -> Dict[str, Any]:
        """JSON-ready response body for this outcome."""
        return {
            "fingerprint": self.fingerprint,
            "status": self.status,
            "summary": self.summary,
            "error": self.error,
            "latency_s": self.latency_s,
        }


class _Settled:
    """What a finished engine run hands every attached requester."""

    __slots__ = ("summary", "error")

    def __init__(self, summary: Optional[Dict[str, Any]], error: Optional[str]) -> None:
        self.summary = summary
        self.error = error


class _Job:
    """One queued-or-running cell: the spec plus the shared future.

    ``claimed`` marks jobs whose fingerprint this process holds a
    cross-process claim on; the worker that settles the job must journal
    and release it.
    """

    __slots__ = ("cell", "future", "claimed")

    def __init__(
        self,
        cell: CellSpec,
        future: "asyncio.Future[_Settled]",
        *,
        claimed: bool = False,
    ) -> None:
        self.cell = cell
        self.future = future
        self.claimed = claimed


class SimulationLane:
    """The bounded, coalescing, priority-ordered simulation queue."""

    def __init__(
        self,
        store: ResultStore,
        sink: ServiceSink,
        executor: ThreadPoolExecutor,
        *,
        workers: int = 2,
        max_queue: int = 64,
        batch_max: int = 8,
        claims: Optional[ClaimRegistry] = None,
        journal: Optional[Journal] = None,
        claim_poll: float = 0.05,
    ) -> None:
        self._store = store
        self._sink = sink
        self._executor = executor
        self._workers = check_positive_int("workers", workers)
        self._max_queue = check_positive_int("max_queue", max_queue)
        self._batch_max = check_positive_int("batch_max", batch_max)
        self._claims = claims
        self._journal = journal
        self._claim_poll = check_positive("claim_poll", claim_poll)
        self._jobs: Dict[str, _Job] = {}
        self._heap: List[Tuple[int, int, _Job]] = []
        self._seq = 0
        self._draining = False
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._tasks: List["asyncio.Task[None]"] = []

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the lane's worker tasks (idempotent)."""
        if self._tasks:
            return
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker()) for _ in range(self._workers)
        ]

    async def drain(self) -> None:
        """Stop admitting, wait for every in-flight cell, stop the workers."""
        self._draining = True
        await self._idle.wait()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:  # repro: noqa[R-SILENT]
                pass  # the cancellation IS the outcome we asked for
        self._tasks = []

    @property
    def queue_depth(self) -> int:
        """Cells admitted but not yet picked up by a worker."""
        return len(self._heap)

    @property
    def in_flight(self) -> int:
        """Cells admitted and not yet settled (queued + running)."""
        return len(self._jobs)

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun; submits are rejected."""
        return self._draining

    # -- submission ---------------------------------------------------------

    async def submit(self, cell: CellSpec) -> CellOutcome:
        """Resolve one cell: cache hit, coalesce, claim, or queue for compute.

        Raises :class:`AdmissionError` when draining or when the queue is
        full; every other failure settles into an ``"error"`` outcome so
        one bad cell in a sweep doesn't poison its siblings.
        """
        start = time.monotonic()
        fp = cell.fingerprint()
        if self._draining:
            self._sink.rejected("draining")
            raise AdmissionError("draining", "service is draining; retry elsewhere")

        job = self._jobs.get(fp)
        if job is None:
            summary = await self._probe(cell)
            if summary is not None:
                return self._finish(fp, "hit", summary, None, start)
            # The probe awaited; a duplicate may have queued meanwhile.
            job = self._jobs.get(fp)

        if job is not None:
            return await self._attach(job, fp, start)

        claimed = False
        if self._claims is not None:
            resolved = await self._acquire_claim(cell, fp, start)
            if resolved is not None:
                return resolved
            claimed = True

        loop = asyncio.get_running_loop()
        if len(self._heap) >= self._max_queue:
            if claimed and self._claims is not None:
                # Give the cell back before refusing, so a peer (or a
                # retry) can claim it instead of waiting out our staleness.
                await loop.run_in_executor(self._executor, self._claims.release, fp)
            self._sink.rejected("queue_full")
            raise AdmissionError(
                "queue_full",
                f"simulation queue is full ({self._max_queue} cells); retry later",
            )
        job = _Job(cell, loop.create_future(), claimed=claimed)
        self._jobs[fp] = job
        self._idle.clear()
        self._seq += 1
        heapq.heappush(self._heap, (-cell.priority, self._seq, job))
        self._wakeup.set()
        if claimed and self._claims is not None and self._journal is not None:
            await loop.run_in_executor(
                self._executor,
                partial(self._journal.append, "claimed", fp, owner=self._claims.owner),
            )
        settled = await asyncio.shield(job.future)
        status = "computed" if settled.error is None else "error"
        return self._finish(fp, status, settled.summary, settled.error, start)

    async def _probe(self, cell: CellSpec) -> Optional[Dict[str, Any]]:
        """Cache lookup on the executor; the cached summary or ``None``."""
        payload = await asyncio.get_running_loop().run_in_executor(
            self._executor, partial(self._store.get, cell.key(), kind=CELL_KIND)
        )
        summary = payload.get("summary") if isinstance(payload, dict) else None
        return summary if isinstance(summary, dict) else None

    async def _attach(self, job: _Job, fp: str, start: float) -> CellOutcome:
        """Ride an in-flight local job to its settled outcome."""
        self._sink.coalesced()
        settled = await asyncio.shield(job.future)
        status = "coalesced" if settled.error is None else "error"
        return self._finish(fp, status, settled.summary, settled.error, start)

    async def _acquire_claim(
        self, cell: CellSpec, fp: str, start: float
    ) -> Optional[CellOutcome]:
        """Win the cross-process claim on *fp*, or ride someone else's run.

        Returns ``None`` once this process holds the claim — the caller
        must queue the cell — or a finished outcome when the cell resolved
        elsewhere while we waited: ``"coalesced"`` from the store when a
        peer process's put landed, or attached to a sibling request that
        claimed-and-queued during one of our awaits.  A peer that dies
        mid-cell stops heartbeating; ``try_claim`` then steals the stale
        claim on a later iteration of the poll loop.
        """
        assert self._claims is not None
        loop = asyncio.get_running_loop()
        while True:
            won = await loop.run_in_executor(self._executor, self._claims.try_claim, fp)
            # The executor hop awaited; a sibling may have queued the cell
            # (and, sharing our owner token, idempotently "won" the claim
            # too) — attach rather than queue a duplicate.
            job = self._jobs.get(fp)
            if job is not None:
                return await self._attach(job, fp, start)
            if won:
                # A peer may have computed-and-released this cell between
                # our cache probe and the claim win; re-check before
                # queueing a redundant engine batch.
                summary = None
                if await loop.run_in_executor(
                    self._executor, self._store.has_fingerprint, fp
                ):
                    summary = await self._probe(cell)
                if summary is not None:
                    await loop.run_in_executor(self._executor, self._claims.release, fp)
                    return self._finish(fp, "hit", summary, None, start)
                job = self._jobs.get(fp)  # those probes awaited; re-check
                if job is not None:
                    return await self._attach(job, fp, start)
                return None
            entry_present = await loop.run_in_executor(
                self._executor, self._store.has_fingerprint, fp
            )
            if entry_present:
                summary = await self._probe(cell)
                if summary is not None:
                    self._sink.coalesced()
                    return self._finish(fp, "coalesced", summary, None, start)
            if self._draining:
                self._sink.rejected("draining")
                raise AdmissionError("draining", "service is draining; retry elsewhere")
            await asyncio.sleep(self._claim_poll)

    def _finish(
        self,
        fp: str,
        status: str,
        summary: Optional[Dict[str, Any]],
        error: Optional[str],
        start: float,
    ) -> CellOutcome:
        latency = time.monotonic() - start
        self._sink.cell_done(status)
        self._sink.observe_latency("simulation", latency)
        return CellOutcome(fp, status, summary, error, latency)

    # -- workers ------------------------------------------------------------

    def _pop_batch(self) -> List[_Job]:
        batch: List[_Job] = []
        while self._heap and len(batch) < self._batch_max:
            batch.append(heapq.heappop(self._heap)[2])
        return batch

    def _run_batch(self, cells: List[PlannedCell], claimed_fps: List[str]) -> List[CellResult]:
        """One engine batch on the executor, heartbeating claimed cells."""
        if self._claims is not None and claimed_fps:
            with self._claims.ticker(claimed_fps):
                return run_cells(cells, cache=self._store)
        return run_cells(cells, cache=self._store)

    def _finalize_claims(self, batch: List[_Job], settled: List[_Settled]) -> None:
        """Journal and release every claimed cell of a finished batch.

        Runs on the executor.  Successful cells journal ``computed`` and
        (once the store entry is visible) ``flushed``; failed cells just
        release, leaving the cell claimable by anyone.
        """
        if self._claims is None:
            return
        for job, outcome in zip(batch, settled):
            if not job.claimed:
                continue
            fp = job.cell.fingerprint()
            if self._journal is not None and outcome.error is None:
                self._journal.append("computed", fp, owner=self._claims.owner)
                if self._store.has_fingerprint(fp):
                    self._journal.append("flushed", fp, owner=self._claims.owner)
            self._claims.release(fp)

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            batch = self._pop_batch()
            if not batch:
                self._wakeup.clear()
                continue
            cells = [job.cell.planned for job in batch]
            claimed_fps = [job.cell.fingerprint() for job in batch if job.claimed]
            try:
                results = await loop.run_in_executor(
                    self._executor, partial(self._run_batch, cells, claimed_fps)
                )
                # summary_to_payload is the exact shape the store persists,
                # so a freshly computed response is byte-identical to a later
                # cache-hit response for the same cell.
                settled = [
                    _Settled(
                        None
                        if r.summary is None
                        else dict(summary_to_payload(r.summary, None)["summary"]),
                        r.error,
                    )
                    for r in results
                ]
            except Exception as exc:  # executor failure: fail the whole batch
                settled = [
                    _Settled(None, f"{type(exc).__name__}: {exc}") for _ in batch
                ]
            if claimed_fps:
                await loop.run_in_executor(
                    self._executor, partial(self._finalize_claims, batch, settled)
                )
            for job, outcome in zip(batch, settled):
                self._jobs.pop(job.cell.fingerprint(), None)
                if not job.future.done():
                    job.future.set_result(outcome)
            if not self._jobs:
                self._idle.set()
