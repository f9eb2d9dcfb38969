"""Uniform sampling without replacement over a shrinking set of integers.

The randomized strategies of the paper repeatedly need "pick an unprocessed
task uniformly at random" (RandomOuter / RandomMatrix and the second phase
of the two-phase strategies) and "pick an unknown row index uniformly at
random" (the Dynamic* strategies).  Both must be O(1) per draw even when the
universe has 10^6 elements (matrices of 100 x 100 blocks), so rejection
sampling against a bitmap is not acceptable near the end of a run.

:class:`SampleSet` keeps the live elements in the prefix of a pre-sized
buffer together with an inverse permutation, giving O(1)
``draw``/``discard``/``__contains__`` with zero per-operation allocation —
the idiom recommended by the HPC guides (pre-allocate, mutate in place).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.taskpool._arrays import sorted_distinct
from repro.utils.validation import check_positive_int

__all__ = ["SampleSet"]


class SampleSet:
    """A set over ``{0, ..., universe - 1}`` supporting O(1) uniform draws.

    Parameters
    ----------
    universe:
        Size of the integer universe.
    members:
        Optional iterable of initial members.  By default the set starts
        *full* (all universe elements present), which matches the common
        case of "all tasks unprocessed" / "all rows unknown".

    Notes
    -----
    Layout invariant: ``_items[:_size]`` holds the current members in
    arbitrary order and ``_pos[v]`` is the index of ``v`` in ``_items`` if
    ``v`` is a member, else ``-1``.  ``discard`` swaps the removed element
    with the last live one (swap-remove), so no holes ever appear.

    Both buffers are plain Python lists: every operation is a scalar
    read-modify-write, where list indexing is several times faster than
    NumPy scalar indexing (no per-access dtype boxing) — and the draw loop
    is the single hottest call of the task-by-task strategies.  The RNG is
    still consumed through ``rng.integers`` exactly as before, so the
    representation is invisible to simulated results.
    """

    __slots__ = ("_universe", "_items", "_pos", "_size")

    def __init__(self, universe: int, members: Optional[Iterable[int]] = None) -> None:
        self._universe = check_positive_int("universe", universe)
        if members is None:
            self._items = list(range(self._universe))
            self._pos = list(range(self._universe))
            self._size = self._universe
        else:
            member_arr = np.asarray(list(members), dtype=np.int64)
            if member_arr.size:
                if member_arr.min() < 0 or member_arr.max() >= self._universe:
                    raise ValueError("members must lie in [0, universe)")
                if sorted_distinct(member_arr).size != member_arr.size:
                    raise ValueError("members must be distinct")
            self._items = member_arr.tolist() + [0] * (self._universe - int(member_arr.size))
            pos = np.full(self._universe, -1, dtype=np.int64)
            pos[member_arr] = np.arange(member_arr.size, dtype=np.int64)
            self._pos = pos.tolist()
            self._size = int(member_arr.size)

    # -- queries ---------------------------------------------------------

    @property
    def universe(self) -> int:
        """Size of the underlying integer universe."""
        return self._universe

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (int, np.integer)):
            return False
        v = int(value)
        return 0 <= v < self._universe and self._pos[v] >= 0

    def __iter__(self) -> Iterator[int]:
        """Iterate over current members (arbitrary order, snapshot)."""
        return iter(self._items[: self._size])

    def members(self) -> np.ndarray:
        """Return a copy of the current members as an ``int64`` array."""
        return np.asarray(self._items[: self._size], dtype=np.int64)

    # -- mutation --------------------------------------------------------

    def add(self, value: int) -> bool:
        """Insert *value*; returns ``True`` if it was absent."""
        v = int(value)
        if not 0 <= v < self._universe:
            raise ValueError(f"value {v} outside universe [0, {self._universe})")
        if self._pos[v] >= 0:
            return False
        self._items[self._size] = v
        self._pos[v] = self._size
        self._size += 1
        return True

    def discard(self, value: int) -> bool:
        """Remove *value* if present; returns ``True`` if it was removed."""
        v = int(value)
        if not 0 <= v < self._universe:
            return False
        idx = self._pos[v]
        if idx < 0:
            return False
        last = self._items[self._size - 1]
        self._items[idx] = last
        self._pos[last] = idx
        self._pos[v] = -1
        self._size -= 1
        return True

    def sample(self, rng: np.random.Generator) -> int:
        """Return a uniformly random member *without* removing it."""
        if self._size == 0:
            raise IndexError("sample from an empty SampleSet")
        return self._items[int(rng.integers(self._size))]

    def draw(self, rng: np.random.Generator) -> int:
        """Remove and return a uniformly random member."""
        if self._size == 0:
            raise IndexError("draw from an empty SampleSet")
        items = self._items
        pos = self._pos
        idx = int(rng.integers(self._size))
        v = items[idx]
        self._size -= 1
        last = items[self._size]
        items[idx] = last
        pos[last] = idx
        pos[v] = -1
        return v

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SampleSet(universe={self._universe}, size={self._size})"

