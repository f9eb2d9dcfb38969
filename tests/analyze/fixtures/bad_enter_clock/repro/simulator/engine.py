"""Fixture: the core enters clock-reading context managers (A-TAINT)."""

from repro.store.timer import Deadline, Stopwatch, stopwatch

__all__ = ["simulate", "simulate_async"]


def simulate(strategy, platform, rng):
    """Fixture stub: a constructor call and an annotated call as ``with`` items."""
    with Stopwatch():
        pass
    with stopwatch() as watch:
        return watch


async def simulate_async(strategy):
    """Fixture stub: an ``async with`` item."""
    async with Deadline():
        return strategy
