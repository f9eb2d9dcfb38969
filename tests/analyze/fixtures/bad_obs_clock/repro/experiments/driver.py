"""Fixture: an experiment driver timing work with the wall clock (A-TAINT)."""

import time

__all__ = ["timed_run"]


def timed_run():
    """Fixture stub."""
    start = time.monotonic()
    return time.monotonic() - start
