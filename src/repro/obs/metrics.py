"""Deterministic metrics primitives: counters, gauges, fixed-bucket histograms.

Every metric value is keyed by a ``(strategy, worker, phase)`` triple — the
three dimensions the paper's aggregates break down over (total vs per-worker
communication, phase-1 vs phase-2 block counts).  ``worker = -1`` and
``phase = 0`` are the documented "whole run" sentinels, so a single key type
covers run-level gauges (makespan), per-worker counters (blocks shipped) and
per-phase splits without separate container shapes.

The primitives are *simulated-time only*: nothing in this module reads a
clock — values arrive from the engines through
:class:`~repro.obs.sink.MetricsSink` hooks, already stamped with event time.
Wall-clock accounting lives exclusively in :mod:`repro.obs.profile` (a
boundary machine-enforced by the A-TAINT check).

All containers merge associatively in a *defined order* (``merge`` applies
the other container's entries in its own sorted-key order), which is what
lets the parallel replicate runner fold per-repetition snapshots into the
same bits the serial loop produces.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ALL_PHASES",
    "ALL_WORKERS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricKey",
    "Metrics",
    "TASK_BUCKETS",
]

#: A metric key: ``(strategy, worker, phase)``.
MetricKey = Tuple[str, int, int]

#: Sentinel worker id meaning "aggregated over all workers".
ALL_WORKERS = -1

#: Sentinel phase meaning "not phase-specific".
ALL_PHASES = 0

#: Default fixed bucket upper bounds for per-assignment task counts
#: (roughly powers of two; the overflow bucket catches anything larger).
TASK_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Fixed bucket upper bounds (seconds) for request/cell latency histograms
#: (1 ms .. 30 s, roughly 2.5x steps — a cache hit lands in the first few
#: buckets, a simulated cell in the tail; the overflow bucket catches hangs).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def _check_key(key: MetricKey) -> MetricKey:
    if (
        not isinstance(key, tuple)
        or len(key) != 3
        or not isinstance(key[0], str)
        or isinstance(key[1], bool)
        or not isinstance(key[1], int)
        or isinstance(key[2], bool)
        or not isinstance(key[2], int)
    ):
        raise TypeError(f"metric key must be (strategy: str, worker: int, phase: int), got {key!r}")
    return key


def _key_to_list(key: MetricKey) -> List[Any]:
    return [key[0], key[1], key[2]]


def _key_from_list(raw: Sequence[Any]) -> MetricKey:
    if len(raw) != 3:
        raise ValueError(f"metric key must have 3 fields, got {raw!r}")
    return _check_key((str(raw[0]), int(raw[1]), int(raw[2])))


class Counter:
    """A monotonically increasing integer counter per key."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[MetricKey, int] = {}

    def inc(self, key: MetricKey, amount: int = 1) -> None:
        """Add *amount* (a non-negative integer) to the key's count."""
        if isinstance(amount, bool) or not isinstance(amount, int):
            raise TypeError(f"amount must be an integer, got {type(amount).__name__}")
        if amount < 0:
            raise ValueError(f"counters only increase; got amount {amount}")
        self._values[_check_key(key)] = self._values.get(key, 0) + amount

    def get(self, key: MetricKey) -> int:
        """The key's count (0 when never incremented)."""
        return self._values.get(key, 0)

    def total(self) -> int:
        """Sum over every key."""
        return sum(self._values.values())

    def items(self) -> List[Tuple[MetricKey, int]]:
        """All ``(key, count)`` pairs in sorted key order."""
        return sorted(self._values.items())

    def merge(self, other: "Counter") -> None:
        """Fold *other* into this counter (per-key addition)."""
        for key, value in other.items():
            self._values[key] = self._values.get(key, 0) + value

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counter):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({len(self._values)} keys, total={self.total()})"

    def to_list(self) -> List[Dict[str, Any]]:
        """JSON-ready representation, sorted by key."""
        return [{"key": _key_to_list(k), "value": v} for k, v in self.items()]

    @classmethod
    def from_list(cls, raw: Sequence[Mapping[str, Any]]) -> "Counter":
        counter = cls()
        for entry in raw:
            counter.inc(_key_from_list(entry["key"]), int(entry["value"]))
        return counter


class Gauge:
    """A last-value-wins float gauge per key."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[MetricKey, float] = {}

    def set(self, key: MetricKey, value: float) -> None:
        """Record the key's current value (overwrites any previous one)."""
        self._values[_check_key(key)] = float(value)

    def get(self, key: MetricKey, default: Optional[float] = None) -> Optional[float]:
        """The key's last value, or *default* when never set."""
        return self._values.get(key, default)

    def items(self) -> List[Tuple[MetricKey, float]]:
        """All ``(key, value)`` pairs in sorted key order."""
        return sorted(self._values.items())

    def merge(self, other: "Gauge") -> None:
        """Fold *other* into this gauge (other's values win per key)."""
        for key, value in other.items():
            self._values[key] = value

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gauge):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({len(self._values)} keys)"

    def to_list(self) -> List[Dict[str, Any]]:
        """JSON-ready representation, sorted by key."""
        return [{"key": _key_to_list(k), "value": v} for k, v in self.items()]

    @classmethod
    def from_list(cls, raw: Sequence[Mapping[str, Any]]) -> "Gauge":
        gauge = cls()
        for entry in raw:
            gauge.set(_key_from_list(entry["key"]), float(entry["value"]))
        return gauge


class _HistogramCell:
    """Bucket counts, observation count and value sum of one key."""

    __slots__ = ("counts", "count", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.counts: List[int] = [0] * (n_buckets + 1)  # + overflow bucket
        self.count = 0
        self.sum = 0.0


class Histogram:
    """A fixed-bucket histogram per key.

    ``buckets`` are the upper bounds (inclusive) of each bucket, strictly
    increasing; one extra overflow bucket catches larger values.  Buckets
    are fixed at construction so two histograms built from the same spec
    always merge cell-by-cell.
    """

    __slots__ = ("buckets", "_cells")

    def __init__(self, buckets: Sequence[float] = TASK_BUCKETS) -> None:
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise ValueError("histogram needs at least one bucket upper bound")
        if any(b >= c for b, c in zip(uppers, uppers[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {uppers}")
        self.buckets: Tuple[float, ...] = uppers
        self._cells: Dict[MetricKey, _HistogramCell] = {}

    def observe(self, key: MetricKey, value: float) -> None:
        """Record one observation of *value* under *key*."""
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[_check_key(key)] = _HistogramCell(len(self.buckets))
        value = float(value)
        index = len(self.buckets)  # overflow unless a bound catches it
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                index = i
                break
        cell.counts[index] += 1
        cell.count += 1
        cell.sum += value

    def cell(self, key: MetricKey) -> Tuple[List[int], int, float]:
        """``(bucket_counts, count, sum)`` of one key (zeros when unseen)."""
        cell = self._cells.get(key)
        if cell is None:
            return [0] * (len(self.buckets) + 1), 0, 0.0
        return list(cell.counts), cell.count, cell.sum

    def items(self) -> List[Tuple[MetricKey, Tuple[List[int], int, float]]]:
        """All ``(key, (bucket_counts, count, sum))`` in sorted key order."""
        return [(k, (list(c.counts), c.count, c.sum)) for k, c in sorted(self._cells.items())]

    def quantile(self, key: MetricKey, q: float) -> Optional[float]:
        """Upper-bound estimate of the *q*-quantile of one key's observations.

        Returns the smallest bucket upper bound whose cumulative count
        reaches ``ceil(q * count)`` — i.e. at least a *q* fraction of the
        observations are ≤ the returned value.  Observations that landed in
        the overflow bucket report the last finite bound (a lower bound on
        the true quantile; pick wider buckets if the tail matters).
        ``None`` when the key has no observations.
        """
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must lie in [0, 1], got {q}")
        cell = self._cells.get(key)
        if cell is None or cell.count == 0:
            return None
        # ceil(count * q), tolerating float fuzz like 0.3 * 10 = 3.0000...4
        target = max(1, math.ceil(cell.count * q - 1e-9))
        cumulative = 0
        for i, upper in enumerate(self.buckets):
            cumulative += cell.counts[i]
            if cumulative >= target:
                return upper
        return self.buckets[-1]

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (same bucket spec required)."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        for key, (counts, count, total) in other.items():
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = _HistogramCell(len(self.buckets))
            for i, c in enumerate(counts):
                cell.counts[i] += c
            cell.count += count
            cell.sum += total

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.buckets == other.buckets and self.items() == other.items()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({len(self.buckets)} buckets, {len(self._cells)} keys)"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation, cells sorted by key."""
        return {
            "buckets": list(self.buckets),
            "cells": [
                {"key": _key_to_list(k), "counts": counts, "count": count, "sum": total}
                for k, (counts, count, total) in self.items()
            ],
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Histogram":
        hist = cls(tuple(float(b) for b in raw["buckets"]))
        for entry in raw["cells"]:
            key = _key_from_list(entry["key"])
            cell = _HistogramCell(len(hist.buckets))
            counts = [int(c) for c in entry["counts"]]
            if len(counts) != len(hist.buckets) + 1:
                raise ValueError(
                    f"cell has {len(counts)} buckets, expected {len(hist.buckets) + 1}"
                )
            cell.counts = counts
            cell.count = int(entry["count"])
            cell.sum = float(entry["sum"])
            hist._cells[key] = cell
        return hist


class Metrics:
    """A named collection of counters, gauges and histograms.

    The single container the sinks accumulate into and the exporters
    serialize; metric families are created lazily by name via
    :meth:`counter`, :meth:`gauge` and :meth:`histogram`.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- family accessors (get-or-create) ----------------------------------

    def counter(self, name: str) -> Counter:
        """The counter family *name*, created empty on first use."""
        family = self._counters.get(name)
        if family is None:
            family = self._counters[name] = Counter()
        return family

    def gauge(self, name: str) -> Gauge:
        """The gauge family *name*, created empty on first use."""
        family = self._gauges.get(name)
        if family is None:
            family = self._gauges[name] = Gauge()
        return family

    def histogram(self, name: str, buckets: Sequence[float] = TASK_BUCKETS) -> Histogram:
        """The histogram family *name*; *buckets* applies on first creation."""
        family = self._histograms.get(name)
        if family is None:
            family = self._histograms[name] = Histogram(buckets)
        return family

    # -- introspection -----------------------------------------------------

    def counter_names(self) -> List[str]:
        return sorted(self._counters)

    def gauge_names(self) -> List[str]:
        return sorted(self._gauges)

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.counter_names() + self.gauge_names() + self.histogram_names())

    def is_empty(self) -> bool:
        """True when no family holds any key."""
        return (
            all(len(c) == 0 for c in self._counters.values())
            and all(len(g) == 0 for g in self._gauges.values())
            and all(len(h) == 0 for h in self._histograms.values())
        )

    # -- merge -------------------------------------------------------------

    def merge(self, other: "Metrics") -> None:
        """Fold *other*'s families into this collection, name by name.

        Families are merged in sorted name order and, within a family, in
        sorted key order — a fixed fold order, so merging the same sequence
        of snapshots always produces bit-identical float sums.
        """
        for name in sorted(other._counters):
            self.counter(name).merge(other._counters[name])
        for name in sorted(other._gauges):
            self.gauge(name).merge(other._gauges[name])
        for name in sorted(other._histograms):
            self.histogram(name, other._histograms[name].buckets).merge(
                other._histograms[name]
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Metrics):
            return NotImplemented
        return (
            {n: c for n, c in self._counters.items() if len(c)}
            == {n: c for n, c in other._counters.items() if len(c)}
            and {n: g for n, g in self._gauges.items() if len(g)}
            == {n: g for n, g in other._gauges.items() if len(g)}
            and {n: h for n, h in self._histograms.items() if len(h)}
            == {n: h for n, h in other._histograms.items() if len(h)}
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Metrics(counters={self.counter_names()}, gauges={self.gauge_names()}, "
            f"histograms={self.histogram_names()})"
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested representation (sorted names and keys)."""
        return {
            "counters": {n: self._counters[n].to_list() for n in self.counter_names()},
            "gauges": {n: self._gauges[n].to_list() for n in self.gauge_names()},
            "histograms": {n: self._histograms[n].to_dict() for n in self.histogram_names()},
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Metrics":
        metrics = cls()
        for name, entries in raw.get("counters", {}).items():
            metrics._counters[name] = Counter.from_list(entries)
        for name, entries in raw.get("gauges", {}).items():
            metrics._gauges[name] = Gauge.from_list(entries)
        for name, entry in raw.get("histograms", {}).items():
            metrics._histograms[name] = Histogram.from_dict(entry)
        return metrics
