"""Fixture: a watched package's CLI timing work directly (A-TAINT)."""

import time

from repro.obs.profile import wall_time

__all__ = ["main"]


def main():
    """Fixture stub: one direct clock read, one through the profiler."""
    return time.perf_counter(), wall_time()
