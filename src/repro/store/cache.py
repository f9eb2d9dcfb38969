"""The on-disk content-addressed object store.

Entries live under ``<root>/objects/<fp[:2]>/<fp>.json`` where ``fp`` is the
sha256 fingerprint of the entry's cache key (see
:mod:`repro.store.fingerprint`).  Each file is a self-describing envelope::

    {
      "format": "repro.store/1",
      "kind": "replicate-cell",        # what the payload is
      "fingerprint": "<sha256 of key>",
      "key": {...},                    # the full canonical key, for audit
      "payload": {...},                # the cached value
      "payload_sha256": "<sha256 of canonical payload JSON>"
    }

Robustness follows the :mod:`repro.faults` mindset — a cache must *never*
turn a recoverable problem into a crash:

* writes are atomic (temp file + ``os.replace``) and serialized through a
  :class:`~repro.store.lock.FileLock`, so readers never observe partial
  files even with ``workers=`` processes sharing one store;
* reads treat any anomaly (unparsable JSON, wrong format tag, fingerprint
  or payload checksum mismatch) as a *miss*: the corrupt file is counted,
  unlinked best-effort, and the caller recomputes;
* one store instance may be shared by threads (the ``repro-serve``
  executor lanes do): every operation additionally holds an in-process
  ``threading.RLock``, because the file lock serializes *processes* while
  the instance's counters and sink forwarding need protection *within*
  one process.  Lock order is always mutex → file lock.

Hit/miss/put/corrupt counts are kept per store instance
(:class:`StoreCounts`) and, when a :class:`~repro.obs.sink.MetricsSink` is
attached, forwarded through its ``on_store_event`` hook so ``repro-report``
can show cache hit rates.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.obs.sink import MetricsSink
from repro.store.fingerprint import canonical_json, fingerprint, sha256_text
from repro.store.lock import FileLock

__all__ = ["ResultStore", "StoreCounts", "StoreEntry", "STORE_FORMAT"]

#: Format tag written into every envelope; unknown tags read as corrupt.
STORE_FORMAT = "repro.store/1"


@dataclass
class StoreCounts:
    """Running totals of one store instance's traffic."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    def hit_rate(self) -> Optional[float]:
        """Hits over lookups, or ``None`` before the first lookup."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return None
        return self.hits / lookups


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk cache entry's bookkeeping view (for ``ls``/``gc``)."""

    fingerprint: str
    path: str
    size: int
    mtime: float
    kind: str = field(default="?")


class ResultStore:
    """Content-addressed cache of simulation/experiment results.

    ``get``/``put`` address entries by *key* — any canonical-JSON-able
    mapping; the store fingerprints it and never interprets its contents
    beyond the audit copy written into the envelope.  A *sink* (any
    :class:`~repro.obs.sink.MetricsSink`) receives one ``on_store_event``
    per lookup/write so cache behavior lands in the same metrics pipeline
    as the simulations themselves.

    Instances are thread-safe: ``get``/``put``/``gc``/``verify`` serialize
    on an in-process re-entrant mutex (the :class:`~repro.store.lock.FileLock`
    only excludes other *processes*), so one store can back a thread-pool
    of ``repro-serve`` lane workers without corrupting its counters or
    interleaving sink events.
    """

    def __init__(self, root: str, *, sink: Optional[MetricsSink] = None) -> None:
        self.root = str(root)
        self.counts = StoreCounts()
        self._sink = sink
        self._mutex = threading.RLock()
        os.makedirs(self._objects_dir(), exist_ok=True)

    # -- layout ---------------------------------------------------------------

    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _lock_path(self) -> str:
        return os.path.join(self.root, ".lock")

    def _entry_path(self, fp: str) -> str:
        return os.path.join(self._objects_dir(), fp[:2], f"{fp}.json")

    def lock(self) -> FileLock:
        """The store-wide writer lock (shared with journal appends)."""
        return FileLock(self._lock_path())

    # -- events -----------------------------------------------------------------

    def _event(self, kind: str, event: str) -> None:
        if event == "hit":
            self.counts.hits += 1
        elif event == "miss":
            self.counts.misses += 1
        elif event == "put":
            self.counts.puts += 1
        elif event == "corrupt":
            self.counts.corrupt += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown store event {event!r}")
        if self._sink is not None:
            self._sink.on_store_event(kind, event)

    # -- core operations --------------------------------------------------------

    def get(self, key: Mapping[str, Any], *, kind: str) -> Optional[Dict[str, Any]]:
        """The payload cached under *key*, or ``None`` on miss.

        Corrupt entries (unparsable, wrong format/kind, checksum mismatch)
        are counted, deleted best-effort and reported as a miss — the
        caller recomputes, never crashes.
        """
        fp = fingerprint(key)
        path = self._entry_path(fp)
        with self._mutex:
            try:
                with open(path, encoding="utf-8") as fh:
                    envelope = json.load(fh)
            except FileNotFoundError:
                self._event(kind, "miss")
                return None
            except (OSError, ValueError):
                self._discard_corrupt(kind, path)
                return None
            payload = self._validate_envelope(envelope, fp, kind)
            if payload is None:
                self._discard_corrupt(kind, path)
                return None
            # Touch for LRU: gc evicts the least recently *used*, not written.
            with contextlib.suppress(OSError):
                os.utime(path)
            self._event(kind, "hit")
            return payload

    def put(self, key: Mapping[str, Any], payload: Mapping[str, Any], *, kind: str) -> str:
        """Cache *payload* under *key*; returns the entry's fingerprint.

        Atomic and lock-serialized: concurrent writers of the same cell
        produce identical bytes, so last-write-wins is harmless.
        """
        fp = fingerprint(key)
        path = self._entry_path(fp)
        envelope_payload = json.loads(canonical_json(payload))
        envelope = {
            "format": STORE_FORMAT,
            "kind": str(kind),
            "fingerprint": fp,
            "key": json.loads(canonical_json(key)),
            "payload": envelope_payload,
            "payload_sha256": sha256_text(canonical_json(envelope_payload)),
        }
        text = json.dumps(envelope, sort_keys=True, indent=None, separators=(",", ":"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._mutex:
            with self.lock():
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    os.replace(tmp, path)
                except BaseException:
                    with contextlib.suppress(OSError):
                        os.unlink(tmp)
                    raise
            self._event(kind, "put")
        return fp

    def has_fingerprint(self, fp: str) -> bool:
        """Lock-free existence probe by fingerprint — no counters, no parsing.

        The claim/drain machinery (:mod:`repro.store.claims`) polls this
        while waiting on foreign owners; it deliberately bypasses the
        hit/miss counters so a wait loop doesn't masquerade as cache
        traffic.  A corrupt entry reads as present here — the eventual
        :meth:`get` still validates and recomputes.
        """
        return os.path.exists(self._entry_path(str(fp)))

    def contains(self, key: Mapping[str, Any]) -> bool:
        """:meth:`has_fingerprint` for a canonical *key* (fingerprints it)."""
        return self.has_fingerprint(fingerprint(key))

    # -- validation ---------------------------------------------------------------

    def _validate_envelope(
        self, envelope: Any, fp: str, kind: str
    ) -> Optional[Dict[str, Any]]:
        """The envelope's payload if every integrity check passes, else ``None``."""
        if not isinstance(envelope, dict):
            return None
        if envelope.get("format") != STORE_FORMAT:
            return None
        if envelope.get("kind") != kind:
            return None
        if envelope.get("fingerprint") != fp:
            return None
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return None
        try:
            digest = sha256_text(canonical_json(payload))
        except TypeError:  # pragma: no cover - payload came from JSON
            return None
        if envelope.get("payload_sha256") != digest:
            return None
        return payload

    def _discard_corrupt(self, kind: str, path: str) -> None:
        self._event(kind, "corrupt")
        self._event(kind, "miss")
        with contextlib.suppress(OSError):
            # Read-path best-effort cleanup: readers never lock (writes are
            # atomic os.replace, so the worst case is deleting a just-rewritten
            # entry, which the next writer recreates).
            os.unlink(path)  # repro: noqa[A-LOCK]

    # -- maintenance ------------------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        """All on-disk entries, least recently used first."""
        found: List[StoreEntry] = []
        objects = self._objects_dir()
        if not os.path.isdir(objects):
            return found
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append(
                    StoreEntry(
                        fingerprint=name[: -len(".json")],
                        path=path,
                        size=int(stat.st_size),
                        mtime=float(stat.st_mtime),
                        kind=self._peek_kind(path),
                    )
                )
        found.sort(key=lambda e: (e.mtime, e.fingerprint))
        return found

    def _peek_kind(self, path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                envelope = json.load(fh)
        except (OSError, ValueError):
            return "?"
        if isinstance(envelope, dict) and isinstance(envelope.get("kind"), str):
            return str(envelope["kind"])
        return "?"

    def total_bytes(self) -> int:
        """Sum of all entry sizes on disk."""
        return sum(e.size for e in self.entries())

    def gc(self, max_bytes: int, *, dry_run: bool = False) -> List[StoreEntry]:
        """Evict least-recently-used entries until the store fits *max_bytes*.

        Returns the evicted (or, with ``dry_run``, would-be-evicted)
        entries.  Eviction order is ``(mtime, fingerprint)`` — reads touch
        mtime, so this is LRU with a deterministic tie-break.
        """
        if isinstance(max_bytes, bool) or not isinstance(max_bytes, int):
            raise TypeError(f"max_bytes must be an integer, got {type(max_bytes).__name__}")
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        evicted: List[StoreEntry] = []
        with self._mutex, self.lock():
            entries = self.entries()
            total = sum(e.size for e in entries)
            for entry in entries:
                if total <= max_bytes:
                    break
                evicted.append(entry)
                total -= entry.size
                if not dry_run:
                    with contextlib.suppress(OSError):
                        os.unlink(entry.path)
        return evicted

    def verify(self, *, delete: bool = False) -> List[StoreEntry]:
        """Re-checksum every entry; returns the corrupt ones.

        With ``delete=True`` corrupt entries are also removed (the next
        lookup would do the same lazily — this just does it eagerly).  The
        checksum scan itself runs lock-free like every read; only the
        deletion pass takes the store lock, so verify cannot race a writer
        re-publishing an entry it is about to unlink.
        """
        corrupt: List[StoreEntry] = []
        for entry in self.entries():
            try:
                with open(entry.path, encoding="utf-8") as fh:
                    envelope = json.load(fh)
            except (OSError, ValueError):
                envelope = None
            kind = envelope.get("kind") if isinstance(envelope, dict) else None
            ok = (
                isinstance(kind, str)
                and self._validate_envelope(envelope, entry.fingerprint, kind) is not None
            )
            if not ok:
                corrupt.append(entry)
        if delete and corrupt:
            with self._mutex, self.lock():
                for entry in corrupt:
                    with contextlib.suppress(OSError):
                        os.unlink(entry.path)
        return corrupt

    def __iter__(self) -> Iterator[StoreEntry]:
        return iter(self.entries())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.counts
        return (
            f"ResultStore({self.root!r}, hits={c.hits}, misses={c.misses}, "
            f"puts={c.puts}, corrupt={c.corrupt})"
        )
