"""Append-only checksummed request journal: sweep state that survives SIGKILL.

The store's cache entries say *what* has been computed; the journal says
*what was asked for and how far it got*.  Every record is one JSON line in
``<root>/journal/1``::

    {"cell": "<fp>", "format": "repro.store.journal/1", "job": "<id>|null",
     "owner": "<owner>|null", "state": "accepted", "sha256": "<checksum>"}

``sha256`` is the digest of the record's canonical JSON *without* the
checksum field, so every line is independently verifiable.  States follow
one cell's lifecycle::

    accepted   the cell was admitted into a named job (sweep)
    claimed    an owner won the cell's claim file
    computed   the engine finished the cell
    flushed    the result is visible in the store

Appends are whole lines written under the store's
:class:`~repro.store.lock.FileLock` with the file opened in append mode, so
concurrent writers (lane workers, external sweep workers) never interleave
partial records.  Nothing is ever rewritten in place — a SIGKILL at any
point leaves at worst one torn final line, which :meth:`Journal.replay`
detects by checksum and skips, mirroring the cache's corrupt-entry
counters: corruption is counted and quarantined, never a crash.
:meth:`Journal.repair` moves undecodable lines into
``<root>/journal/quarantine`` so the main segment converges back to
all-valid records.

:meth:`Journal.job_status` is the recovery read path: a *job* (sweep) is
defined by its ``accepted`` records, a cell's progress is the furthest
state any record (from any process) reached, and store presence counts as
finished — which is exactly what a restarted ``repro-serve`` needs to
answer "was my sweep finished?" from disk alone.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.sink import MetricsSink
from repro.store.cache import ResultStore
from repro.store.fingerprint import canonical_json, sha256_text

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_STATES",
    "Journal",
    "JournalRecord",
    "JournalReplay",
]

#: Format tag inside every journal record; unknown tags read as corrupt.
JOURNAL_FORMAT = "repro.store.journal/1"

#: Cell lifecycle states, in progress order.
JOURNAL_STATES = ("accepted", "claimed", "computed", "flushed")

_STATE_RANK = {state: rank for rank, state in enumerate(JOURNAL_STATES)}


@dataclass(frozen=True)
class JournalRecord:
    """One validated journal line."""

    cell: str
    state: str
    job: Optional[str] = None
    owner: Optional[str] = None


@dataclass(frozen=True)
class JournalReplay:
    """Everything one :meth:`Journal.replay` pass recovered."""

    #: Valid records, in append order.
    records: "tuple[JournalRecord, ...]"
    #: Lines that failed decoding or checksum verification.
    corrupt: int


class Journal:
    """The append-only journal attached to one store directory.

    A *sink* receives ``on_store_event("journal", "journal_append")`` per
    appended record and ``("journal", "journal_corrupt")`` per quarantined
    line, landing journal traffic in the same metrics pipeline as cache
    hits and claims.
    """

    def __init__(self, store: ResultStore, *, sink: Optional[MetricsSink] = None) -> None:
        self._store = store
        self._sink = sink
        directory = os.path.join(store.root, "journal")
        os.makedirs(directory, exist_ok=True)
        #: The active journal segment (segment numbering leaves room for
        #: future rotation; everything today lives in segment ``1``).
        self.path = os.path.join(directory, "1")
        #: Where :meth:`repair` moves undecodable lines.
        self.quarantine_path = os.path.join(directory, "quarantine")

    # -- writing --------------------------------------------------------------

    @staticmethod
    def _format_record(
        state: str, cell: str, job: Optional[str], owner: Optional[str]
    ) -> str:
        record: Dict[str, Any] = {
            "format": JOURNAL_FORMAT,
            "cell": str(cell),
            "state": state,
            "job": None if job is None else str(job),
            "owner": None if owner is None else str(owner),
        }
        record["sha256"] = sha256_text(canonical_json(record))
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    def append(
        self, state: str, cell: str, *, job: Optional[str] = None, owner: Optional[str] = None
    ) -> None:
        """Append one record (see :meth:`append_many`)."""
        self.append_many(state, [cell], job=job, owner=owner)

    def append_many(
        self,
        state: str,
        cells: Iterable[str],
        *,
        job: Optional[str] = None,
        owner: Optional[str] = None,
    ) -> int:
        """Append one *state* record per cell under a single lock hold.

        Returns the number of records written.  Whole lines only: a reader
        can never observe half of one process's record interleaved with
        another's, and a torn final line left by a killed writer is ended
        first, so it cannot corrupt the records appended after it.
        """
        if state not in _STATE_RANK:
            raise ValueError(
                f"state must be one of {JOURNAL_STATES}, got {state!r}"
            )
        lines = [self._format_record(state, cell, job, owner) for cell in cells]
        if not lines:
            return 0
        data = "".join(lines).encode("utf-8")
        with self._store.lock():
            with open(self.path, "ab+") as fh:
                end = fh.seek(0, os.SEEK_END)
                if end:
                    fh.seek(end - 1)
                    if fh.read(1) != b"\n":
                        # A writer died mid-line: end the torn line so it
                        # stays one corrupt record instead of swallowing
                        # this one.
                        data = b"\n" + data
                fh.write(data)
        if self._sink is not None:
            for _ in lines:
                self._sink.on_store_event("journal", "journal_append")
        return len(lines)

    # -- reading --------------------------------------------------------------

    @staticmethod
    def _parse_line(line: str) -> Optional[JournalRecord]:
        try:
            raw = json.loads(line)
        except ValueError:
            return None
        if not isinstance(raw, dict) or raw.get("format") != JOURNAL_FORMAT:
            return None
        digest = raw.pop("sha256", None)
        if not isinstance(digest, str):
            return None
        try:
            expected = sha256_text(canonical_json(raw))
        except TypeError:
            return None
        if digest != expected:
            return None
        cell, state = raw.get("cell"), raw.get("state")
        job, owner = raw.get("job"), raw.get("owner")
        if not isinstance(cell, str) or state not in _STATE_RANK:
            return None
        if not (job is None or isinstance(job, str)):
            return None
        if not (owner is None or isinstance(owner, str)):
            return None
        return JournalRecord(cell=cell, state=str(state), job=job, owner=owner)

    def _read_lines(self) -> List[str]:
        try:
            with open(self.path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            return []
        return [line for line in text.split("\n") if line]

    def replay(self) -> JournalReplay:
        """Read every record, skipping (and counting) corrupt lines.

        Lock-free like every store read: appends are whole lines, so the
        worst a concurrent writer can cause is a torn *final* line, which
        fails its checksum here and completes by the next replay.
        """
        records: List[JournalRecord] = []
        corrupt = 0
        for line in self._read_lines():
            record = self._parse_line(line)
            if record is None:
                corrupt += 1
            else:
                records.append(record)
        return JournalReplay(records=tuple(records), corrupt=corrupt)

    def repair(self) -> int:
        """Move corrupt lines into the quarantine file; returns how many.

        Runs under the store lock so no append can land between reading
        and atomically rewriting the cleaned segment.
        """
        with self._store.lock():
            lines = self._read_lines()
            good: List[str] = []
            bad: List[str] = []
            for line in lines:
                (good if self._parse_line(line) is not None else bad).append(line)
            if not bad:
                return 0
            with open(self.quarantine_path, "a", encoding="utf-8") as fh:
                for line in bad:
                    fh.write(line + "\n")
            directory = os.path.dirname(self.path)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    for line in good:
                        fh.write(line + "\n")
                os.replace(tmp, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        if self._sink is not None:
            for _ in bad:
                self._sink.on_store_event("journal", "journal_corrupt")
        return len(bad)

    # -- job status -----------------------------------------------------------

    def jobs(self) -> List[str]:
        """Every job id with at least one ``accepted`` record, sorted."""
        replayed = self.replay()
        return sorted(
            {r.job for r in replayed.records if r.state == "accepted" and r.job is not None}
        )

    def job_cells(self, job: str) -> Dict[str, str]:
        """Per-cell furthest state for *job*; empty when the job is unknown.

        Membership comes from the job's ``accepted`` records; progress
        records (``claimed``/``computed``/``flushed``) advance a member
        cell regardless of which process — or which job id — wrote them,
        because cell computation is shared across jobs by design.
        """
        return self._job_cells(self.replay(), job)

    @staticmethod
    def _job_cells(replayed: JournalReplay, job: str) -> Dict[str, str]:
        members: Dict[str, str] = {}
        for record in replayed.records:
            if record.state == "accepted" and record.job == str(job):
                members.setdefault(record.cell, "accepted")
        if not members:
            return {}
        for record in replayed.records:
            current = members.get(record.cell)
            if current is not None and _STATE_RANK[record.state] > _STATE_RANK[current]:
                members[record.cell] = record.state
        return members

    def job_status(
        self, job: str, *, store: Optional[ResultStore] = None
    ) -> Optional[Dict[str, Any]]:
        """JSON-ready recovery status for *job*, or ``None`` if unknown.

        A cell counts as finished when its journal state reached
        ``flushed`` *or* the result is present in *store* — the journal
        may miss the final record if the writer died between ``put`` and
        append, but the store entry is the ground truth.
        """
        replayed = self.replay()
        cells = self._job_cells(replayed, job)
        if not cells:
            return None
        finished = sorted(
            fp
            for fp, state in cells.items()
            if state == "flushed" or (store is not None and store.has_fingerprint(fp))
        )
        pending = sorted(set(cells) - set(finished))
        return {
            "job": str(job),
            "cells": dict(sorted(cells.items())),
            "finished": finished,
            "pending": pending,
            "done": not pending,
            "corrupt_records": replayed.corrupt,
        }
