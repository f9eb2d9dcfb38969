"""Random-number-generator plumbing.

All randomized code in :mod:`repro` takes a :class:`numpy.random.Generator`
(or a seed convertible to one) so that every simulation, experiment and test
is reproducible.  Independent streams for repeated experiments are derived
with :func:`spawn_rngs`, which uses NumPy's ``SeedSequence.spawn`` so streams
are statistically independent rather than consecutively seeded.

:func:`bounded_draws` serves the vector kernels' per-event draws: the exact
values and stream consumption of ``Generator.integers(size)``, computed
from raw PCG64 words without the per-call numpy overhead.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

__all__ = [
    "BoundedDraws",
    "SeedLike",
    "as_generator",
    "bounded_draws",
    "raw_draw_fallback",
    "spawn_rngs",
    "spawn_seed_sequences",
]

#: The low 32 bits of a word; also the largest bound numpy draws through
#: its 32-bit Lemire path (2**32 itself takes a plain 32-bit value).
_MASK32 = 0xFFFFFFFF
_TWO32 = 0x100000000


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a
    :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged, so callers can thread one RNG through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed_sequences(seed: SeedLike, n: int) -> List[np.random.SeedSequence]:
    """Derive *n* independent child :class:`~numpy.random.SeedSequence`\\ s.

    The resolved children fully determine the streams of
    :func:`spawn_rngs` — ``as_generator(child)`` reproduces exactly the
    generator that ``spawn_rngs(seed, n)[i]`` would return.  Fault
    schedules (:meth:`repro.faults.models.FaultSchedule.draw`) give each
    worker one child, so a worker's crash times do not depend on how
    many other workers the platform has.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    n = int(n)
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of RNGs (got {n})")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own stream.
        return np.random.SeedSequence(seed.integers(0, 2**63)).spawn(n)
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(n)
    return np.random.SeedSequence(seed).spawn(n)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive *n* independent generators from a single seed.

    Used by the experiment runner to give each repetition of a simulation its
    own stream while remaining reproducible from one top-level seed.
    Returns a concrete ``list`` so callers can index, slice and ``len()`` it.
    """
    return [np.random.default_rng(c) for c in spawn_seed_sequences(seed, n)]


# ---------------------------------------------------------------------------
# Bounded draws from raw PCG64 words
# ---------------------------------------------------------------------------


class BoundedDraws:
    """``Generator.integers(size)``, one call at a time, via the generator.

    The portable path, and the interface of the raw-word fast path
    (:class:`_RawDraws`): :meth:`integers` returns exactly what
    ``int(generator.integers(size))`` would, consuming the stream the same
    way; :meth:`sync` and :meth:`reload` bracket any use of the generator
    itself (a no-op here).  *fallback* names why the fast path does not
    apply, ``None`` on the fast path.
    """

    __slots__ = ("generator", "fallback")

    def __init__(self, generator: np.random.Generator, fallback: Optional[str]) -> None:
        self.generator = generator
        self.fallback = fallback

    def integers(self, size: int) -> int:
        """A uniform draw from ``range(size)``."""
        return int(self.generator.integers(size))

    def sync(self) -> None:
        """Write pending state back, so the generator itself is current."""

    def reload(self) -> None:
        """Pick up state after the generator itself was used."""


class _RawDraws(BoundedDraws):
    """numpy's bounded draw, replayed on raw words of an exact ``PCG64``.

    For a bound up to 2**32, ``Generator.integers(size)`` is Lemire's
    multiply-and-reject method (arXiv:1805.10941) on 32-bit values; a
    64-bit word yields two of them, the low half first, the high half
    waiting in the bit generator's ``has_uint32``/``uinteger`` fields.
    This class keeps that buffer in Python and draws words with
    ``random_raw()``, which leaves the fields alone, as do ``random`` and
    ``uniform``: interleaving those on the live generator is exact.
    Everything else that reads 32-bit values (``integers`` itself, a
    deep copy, a state read) must be bracketed by :meth:`sync` and
    :meth:`reload`.  Bounds of 2**32 or more take ``integers``.
    """

    __slots__ = ("_bit_generator", "_raw", "_has", "_half")

    def __init__(self, generator: np.random.Generator) -> None:
        super().__init__(generator, None)
        self._bit_generator = generator.bit_generator
        self._raw = self._bit_generator.random_raw
        self._has = 0
        self._half = 0
        self.reload()

    def integers(self, size: int) -> int:
        if size == 1:
            return 0  # numpy returns the bound without drawing
        if not 1 < size <= _MASK32:
            self.sync()
            value = int(self.generator.integers(size))
            self.reload()
            return value
        while True:
            if self._has:
                self._has = 0
                m = self._half * size
            else:
                word = self._raw()
                self._has = 1
                self._half = word >> 32
                m = (word & _MASK32) * size
            # Accept unless the low half falls below 2**32 mod size (which
            # is below size, so most values skip the modulo), as numpy does.
            leftover = m & _MASK32
            if leftover >= size or leftover >= (_TWO32 - size) % size:
                return m >> 32

    def sync(self) -> None:
        state = self._bit_generator.state
        state["has_uint32"] = self._has
        state["uinteger"] = self._half
        self._bit_generator.state = state

    def reload(self) -> None:
        state = self._bit_generator.state
        self._has = state["has_uint32"]
        self._half = state["uinteger"]


@functools.lru_cache(maxsize=None)
def _raw_draws_agree() -> bool:
    """Once per process: do raw-word draws equal ``Generator.integers``?

    Compares values and end states over bounds that force rejections
    (2**31 + 1 rejects about half of all values), the drawless bound 1,
    the largest 32-bit bound and ``random()`` calls in between.
    """
    reference = np.random.Generator(np.random.PCG64(2014))
    generator = np.random.Generator(np.random.PCG64(2014))
    draws = _RawDraws(generator)
    sizes = [2**31 + 1] * 24 + [1, 2, 3, 7, 1000, 3 * 2**30, _MASK32, 1, 5]
    for t, size in enumerate(sizes):
        if draws.integers(size) != int(reference.integers(size)):
            return False
        if t % 5 == 0 and generator.random() != reference.random():
            return False
    draws.sync()
    return bool(generator.bit_generator.state == reference.bit_generator.state)


def raw_draw_fallback(generator: np.random.Generator) -> Optional[str]:
    """Why :func:`bounded_draws` would call ``integers`` on *generator*.

    ``None`` when the raw-word path applies: the bit generator is exactly
    :class:`numpy.random.PCG64` and this numpy passed the self-check.
    Otherwise ``"bit-generator:<name>"`` or ``"self-check"``.
    """
    bit_generator = generator.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return f"bit-generator:{type(bit_generator).__name__}"
    if not _raw_draws_agree():
        return "self-check"
    return None


def bounded_draws(generator: np.random.Generator) -> BoundedDraws:
    """Per-call ``integers(size)`` on *generator*, from raw words when exact.

    The result reproduces ``int(generator.integers(size))`` call for call
    and leaves the stream where those calls would (after :meth:`~BoundedDraws.sync`).
    Its ``fallback`` records why the raw-word path was not taken.
    """
    reason = raw_draw_fallback(generator)
    if reason is None:
        return _RawDraws(generator)
    return BoundedDraws(generator, reason)
