"""Fixture: the profiler module itself is a sanitized A-TAINT boundary."""

import time

__all__ = ["wall_time"]


def wall_time():
    """Fixture stub."""
    return time.perf_counter()
