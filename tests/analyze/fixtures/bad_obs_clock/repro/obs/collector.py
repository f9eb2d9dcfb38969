"""Fixture: direct wall-clock reads in the observability layer (A-TAINT)."""

import time
from time import perf_counter

__all__ = ["bad_metric", "bad_bare"]


def bad_metric():
    """Fixture stub."""
    return time.time()


def bad_bare():
    """Fixture stub."""
    return perf_counter()
