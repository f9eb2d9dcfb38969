"""Fixture: context managers that read a clock on entry and exit (A-TAINT).

This module is neither a deterministic package nor a sanitized boundary,
so its clock reads are findings exactly when the deterministic core enters
one of these managers through a ``with`` statement.
"""

import time

__all__ = ["Deadline", "Stopwatch", "Unused", "stopwatch"]


class Stopwatch:
    """Fixture stub: reads the clock in ``__enter__`` and ``__exit__``."""

    def __enter__(self):
        """Fixture stub."""
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        """Fixture stub."""
        self.elapsed = time.perf_counter() - self.start
        return None


class Deadline:
    """Fixture stub: an async manager reading the clock in ``__aenter__``."""

    async def __aenter__(self):
        """Fixture stub."""
        self.until = time.monotonic() + 1.0
        return self

    async def __aexit__(self, *exc):
        """Fixture stub."""
        return None


class Unused:
    """Fixture stub: never entered from the core, so never flagged."""

    def __enter__(self):
        """Fixture stub."""
        return time.time()

    def __exit__(self, *exc):
        """Fixture stub."""
        return None


def stopwatch() -> Stopwatch:
    """Fixture stub: an annotated return type resolves the ``with`` item."""
    return Stopwatch()
