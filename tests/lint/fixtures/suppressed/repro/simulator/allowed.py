"""Fixture: violations silenced with repro: noqa comments."""

import time

__all__ = ["stamp", "stamp_any"]


def stamp(rng=None):
    """Fixture stub."""
    return time.time()  # repro: noqa[A-TAINT]


def stamp_any(rng=None):
    """Fixture stub."""
    return time.perf_counter()  # repro: noqa
