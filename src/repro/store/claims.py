"""Cross-process cell claims: work-stealing without a coordinator.

The :class:`~repro.store.cache.ResultStore` already lets many processes
share one cache directory — writes are atomic and lock-serialized — but
nothing stops two cold processes from *computing* the same cell twice.
This module adds the missing arbitration: a **claim file** per cell
fingerprint under ``<root>/claims/``, created with ``O_CREAT | O_EXCL`` so
exactly one process wins each cell, carrying the owner's identity and a
heartbeat timestamp::

    {
      "format": "repro.store.claim/1",
      "fingerprint": "<sha256 of the cell key>",
      "owner": "<host>:<pid>:<counter>",
      "pid": 12345,
      "host": "worker-a",
      "created": 1699999999.1,
      "heartbeat": 1700000002.7
    }

Liveness follows the :mod:`repro.store.lock` stale-breaking pattern: an
owner refreshes ``heartbeat`` while it computes (see
:class:`HeartbeatTicker`); a claim whose heartbeat is older than
``stale_after`` is presumed abandoned by a dead process and may be broken
and re-claimed ("stolen") by anyone.  Release happens explicitly after the
owner's ``put`` lands; release-on-crash is implicit — the heartbeat stops
and the claim goes stale.

Mutation discipline (the A-LOCK analyzer enforces this): claim *creation*
is a lone ``os.open(..., O_EXCL)`` — the atomic create is itself the
arbitration, no lock needed — while every rewrite or unlink of an existing
claim runs under the store's :class:`~repro.store.lock.FileLock` so a
steal can re-verify staleness without racing the owner's heartbeat.

:func:`drain_units` builds the coordinator-free worker loop on top: N
independent processes walk one list of work units (a unit is one cell, or
cells one call computes together), skip cells already in the store,
claim-or-skip the rest one cell at a time, and poll until every unit is
drained.  Two workers never compute the same cell; a SIGKILLed worker's
cells go stale and are finished by the survivors.  :func:`drain_cells` is
the one-cell-per-unit form.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.obs.sink import MetricsSink
from repro.store.cache import ResultStore
from repro.store.journal import Journal

__all__ = [
    "CLAIM_FORMAT",
    "ClaimInfo",
    "ClaimRegistry",
    "DrainStats",
    "DrainTimeout",
    "DrainUnit",
    "HeartbeatTicker",
    "drain_cells",
    "drain_units",
]

#: Format tag written into every claim file; unknown tags read as corrupt.
CLAIM_FORMAT = "repro.store.claim/1"

#: Per-process counter so two registries in one process get distinct owners.
_OWNER_LOCK = threading.Lock()
_OWNER_SERIAL = 0

_T = TypeVar("_T")


def _next_owner() -> str:
    """A process-unique owner token: ``<host>:<pid>:<serial>``."""
    global _OWNER_SERIAL
    with _OWNER_LOCK:
        _OWNER_SERIAL += 1
        serial = _OWNER_SERIAL
    return f"{socket.gethostname()}:{os.getpid()}:{serial}"


@dataclass(frozen=True)
class ClaimInfo:
    """One parsed claim file (a snapshot — the owner may refresh it)."""

    fingerprint: str
    owner: str
    pid: int
    host: str
    created: float
    heartbeat: float


class DrainTimeout(RuntimeError):
    """Raised when :func:`drain_units` ran out of time with cells pending."""


@dataclass(frozen=True)
class DrainUnit(Generic[_T]):
    """Cells that one compute call produces together, for :func:`drain_units`.

    ``cells`` are the members' store fingerprints, ``item`` the opaque
    work description handed to the compute callback, and ``job`` the
    journal job id its progress records carry.
    """

    cells: Tuple[str, ...]
    item: _T
    job: Optional[str] = None


@dataclass
class DrainStats:
    """What one :func:`drain_units` pass over a list of units accomplished."""

    #: Cells this process claimed and computed.
    computed: int = 0
    #: Cells already present in the store when visited (someone else's work).
    cached: int = 0
    #: Poll sleeps spent waiting on cells claimed by other live owners.
    waits: int = 0

    def total(self) -> int:
        """Cells accounted for (computed here or found cached)."""
        return self.computed + self.cached


class ClaimRegistry:
    """Claim files next to one store's cache entries.

    One registry represents one *owner* (one worker process, or one
    service instance).  ``clock`` is injectable for deterministic tests;
    the default is wall time because heartbeats must be comparable across
    processes.  A *sink* receives ``on_store_event("claim", ...)`` with
    events ``claim`` (fresh claim), ``steal`` (stale claim broken and
    re-claimed) and ``release``.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        owner: Optional[str] = None,
        stale_after: float = 30.0,
        clock: Callable[[], float] = time.time,
        sink: Optional[MetricsSink] = None,
    ) -> None:
        if stale_after <= 0:
            raise ValueError(f"stale_after must be positive, got {stale_after}")
        self._store = store
        self.owner = str(owner) if owner is not None else _next_owner()
        self.stale_after = float(stale_after)
        self._clock = clock
        self._sink = sink
        self.counts: Dict[str, int] = {
            "claimed": 0,
            "stolen": 0,
            "released": 0,
            "lost": 0,
        }
        os.makedirs(self._claims_dir(), exist_ok=True)

    # -- layout ---------------------------------------------------------------

    def _claims_dir(self) -> str:
        return os.path.join(self._store.root, "claims")

    def _claim_path(self, fp: str) -> str:
        return os.path.join(self._claims_dir(), f"{fp}.json")

    # -- events ---------------------------------------------------------------

    def _count(self, counter: str, event: str) -> None:
        self.counts[counter] += 1
        if self._sink is not None:
            self._sink.on_store_event("claim", event)

    # -- reading --------------------------------------------------------------

    def read_claim(self, fp: str) -> Optional[ClaimInfo]:
        """The current claim on *fp*, or ``None`` if absent/unreadable."""
        try:
            with open(self._claim_path(fp), encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or raw.get("format") != CLAIM_FORMAT:
            return None
        try:
            return ClaimInfo(
                fingerprint=str(raw["fingerprint"]),
                owner=str(raw["owner"]),
                pid=int(raw["pid"]),
                host=str(raw["host"]),
                created=float(raw["created"]),
                heartbeat=float(raw["heartbeat"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def is_stale(self, info: ClaimInfo) -> bool:
        """Whether *info*'s heartbeat is older than ``stale_after``."""
        return (self._clock() - info.heartbeat) > self.stale_after

    def active(self) -> List[ClaimInfo]:
        """All parseable claims currently on disk, sorted by fingerprint."""
        claims: List[ClaimInfo] = []
        directory = self._claims_dir()
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return claims
        for name in names:
            if not name.endswith(".json"):
                continue
            info = self.read_claim(name[: -len(".json")])
            if info is not None:
                claims.append(info)
        return claims

    # -- claiming -------------------------------------------------------------

    def _payload(self, fp: str, created: float) -> bytes:
        record = {
            "format": CLAIM_FORMAT,
            "fingerprint": fp,
            "owner": self.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "created": created,
            "heartbeat": self._clock(),
        }
        return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")

    def _create(self, fp: str) -> bool:
        """One ``O_EXCL`` create attempt; the create IS the arbitration."""
        path = self._claim_path(fp)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, self._payload(fp, created=self._clock()))
        finally:
            os.close(fd)
        return True

    def _expired(self, fp: str, info: Optional[ClaimInfo]) -> bool:
        """Whether the claim on *fp* may be broken (stale or corrupt-and-old)."""
        if info is not None:
            return self.is_stale(info)
        # Unreadable claim: fall back to file age (lock.py's mtime heuristic)
        # so a torn write microseconds old is never broken prematurely.
        try:
            age = time.time() - os.path.getmtime(self._claim_path(fp))
        except OSError:
            return True  # vanished meanwhile: nothing left to respect
        return age > self.stale_after

    def _break_claim(self, fp: str, expected: Optional[ClaimInfo]) -> bool:
        """Unlink a presumed-dead claim, re-verifying under the store lock."""
        path = self._claim_path(fp)
        with self._store.lock():
            current = self.read_claim(fp)
            if current is not None:
                unchanged = expected is not None and (
                    current.owner == expected.owner
                    and current.heartbeat == expected.heartbeat
                )
                if not unchanged:
                    # Refreshed or re-claimed while we deliberated: back off.
                    return False
            with contextlib.suppress(OSError):
                os.unlink(path)
        return True

    def try_claim(self, fp: str) -> bool:
        """Claim *fp* for this owner; ``True`` iff we now hold it.

        Never blocks: a live foreign claim returns ``False`` immediately.
        A stale (or old-and-corrupt) claim is broken under the store lock
        and re-claimed — the ``steal`` path that makes crashed workers'
        cells finishable by survivors.
        """
        if self._create(fp):
            self._count("claimed", "claim")
            return True
        info = self.read_claim(fp)
        if info is not None and info.owner == self.owner:
            return True  # idempotent re-claim of our own cell
        if not self._expired(fp, info):
            return False
        if not self._break_claim(fp, info):
            return False
        if self._create(fp):
            self._count("stolen", "steal")
            return True
        return False  # another thief won the re-create race

    def heartbeat(self, fp: str) -> bool:
        """Refresh our claim's heartbeat; ``False`` if the claim was lost."""
        path = self._claim_path(fp)
        with self._store.lock():
            info = self.read_claim(fp)
            if info is None or info.owner != self.owner:
                return False
            record = {
                "format": CLAIM_FORMAT,
                "fingerprint": info.fingerprint,
                "owner": self.owner,
                "pid": info.pid,
                "host": info.host,
                "created": info.created,
                "heartbeat": self._clock(),
            }
            text = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            fd, tmp = tempfile.mkstemp(dir=self._claims_dir(), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        return True

    def release(self, fp: str) -> bool:
        """Drop our claim on *fp*; ``False`` if it was already stolen/gone."""
        path = self._claim_path(fp)
        with self._store.lock():
            info = self.read_claim(fp)
            if info is None or info.owner != self.owner:
                self.counts["lost"] += 1
                return False
            with contextlib.suppress(OSError):
                os.unlink(path)
        self._count("released", "release")
        return True

    def break_stale(self) -> int:
        """Unlink every stale claim on disk; returns how many were broken."""
        broken = 0
        for info in self.active():
            if self.is_stale(info) and self._break_claim(info.fingerprint, info):
                broken += 1
        return broken

    def ticker(self, fingerprints: List[str], *, interval: Optional[float] = None) -> "HeartbeatTicker":
        """A :class:`HeartbeatTicker` keeping *fingerprints* alive."""
        return HeartbeatTicker(self, fingerprints, interval=interval)


class HeartbeatTicker:
    """Background thread refreshing claim heartbeats while a compute runs.

    Use as a context manager around the owner's long computation::

        with registry.ticker([fp]):
            compute_and_put(cell)

    The tick interval defaults to ``stale_after / 4`` so a healthy owner
    refreshes several times per staleness window; a SIGKILL stops the
    ticks (daemon thread) and the claim goes stale on schedule.
    """

    def __init__(
        self,
        registry: ClaimRegistry,
        fingerprints: List[str],
        *,
        interval: Optional[float] = None,
    ) -> None:
        self._registry = registry
        self._fingerprints = list(fingerprints)
        if interval is None:
            interval = max(0.05, registry.stale_after / 4.0)
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._interval = float(interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Spawn the ticker thread (idempotent)."""
        if self._thread is not None or not self._fingerprints:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-claim-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            for fp in self._fingerprints:
                with contextlib.suppress(OSError):
                    self._registry.heartbeat(fp)

    def stop(self) -> None:
        """Stop ticking and join the thread."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=10.0)

    def __enter__(self) -> "HeartbeatTicker":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def drain_cells(
    store: ResultStore,
    cells: Mapping[str, _T],
    compute: Callable[[_T], None],
    *,
    claims: ClaimRegistry,
    journal: Optional[Journal] = None,
    job: Optional[str] = None,
    poll_interval: float = 0.05,
    timeout: Optional[float] = None,
) -> DrainStats:
    """Drain a cell manifest cooperatively: :func:`drain_units`, one cell per unit.

    *cells* maps each cell's store fingerprint to an opaque work item;
    *compute* must, given the item, compute the cell **and write it into
    the store** (so peers observe completion via the entry's existence).
    """
    return drain_units(
        store,
        [DrainUnit((fp,), item, job) for fp, item in cells.items()],
        lambda item, won: compute(item),
        claims=claims,
        journal=journal,
        poll_interval=poll_interval,
        timeout=timeout,
    )


def drain_units(
    store: ResultStore,
    units: Sequence[DrainUnit[_T]],
    compute: Callable[[_T, List[str]], None],
    *,
    claims: ClaimRegistry,
    journal: Optional[Journal] = None,
    poll_interval: float = 0.05,
    timeout: Optional[float] = None,
) -> DrainStats:
    """Drain *units* cooperatively with any number of peers.

    ``compute(item, won)`` must compute the unit's member cells whose
    fingerprints are in *won* **and write each into the store** (so peers
    observe completion via the entries' existence).

    Each pass visits every unit with members still pending.  A member
    already in the store is done (counted ``cached``); every other member
    is claimed through *claims*, one fingerprint at a time, and a won
    member found stored after all (a peer finished it between the probe
    and the claim) is released and counted ``cached`` too.  The members
    this process won are computed in one *compute* call (heartbeating
    throughout, journaling ``claimed → computed → flushed`` per cell when
    a *journal* is given) and released; members held by another owner are
    revisited next pass, by which time that owner has either finished
    them or died and left stale claims to steal.  Between passes that
    made no progress the loop sleeps *poll_interval* seconds.

    Raises :class:`DrainTimeout` if *timeout* elapses with cells pending,
    and re-raises immediately (after releasing its claims) if *compute*
    fails — a crashing worker must not silently swallow its cells.
    """
    if poll_interval <= 0:
        raise ValueError(f"poll_interval must be positive, got {poll_interval}")
    pending = [(unit, list(unit.cells)) for unit in units]
    stats = DrainStats()
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    while pending:
        progressed = False
        still: List[Tuple[DrainUnit[_T], List[str]]] = []
        for unit, members in pending:
            won: List[str] = []
            held: List[str] = []
            try:
                for fp in members:
                    if not store.has_fingerprint(fp):
                        if not claims.try_claim(fp):
                            held.append(fp)
                            continue
                        # A peer may have stored the cell and released its
                        # claim between the probe and the claim.
                        if not store.has_fingerprint(fp):
                            won.append(fp)
                            continue
                        claims.release(fp)
                    stats.cached += 1
                    progressed = True
                if won:
                    if journal is not None:
                        journal.append_many("claimed", won, job=unit.job, owner=claims.owner)
                    with claims.ticker(won):
                        compute(unit.item, won)
                    if journal is not None:
                        journal.append_many("computed", won, job=unit.job, owner=claims.owner)
                        flushed = [fp for fp in won if store.has_fingerprint(fp)]
                        journal.append_many("flushed", flushed, job=unit.job, owner=claims.owner)
            finally:
                for fp in won:
                    claims.release(fp)
            if won:
                stats.computed += len(won)
                progressed = True
            if held:
                still.append((unit, held))
        pending = still
        if pending and not progressed:
            if deadline is not None and time.monotonic() >= deadline:
                left = sum(len(members) for _, members in pending)
                raise DrainTimeout(
                    f"{left} cells still pending after {timeout}s "
                    "(foreign claims never resolved)"
                )
            stats.waits += 1
            time.sleep(poll_interval)
    return stats
