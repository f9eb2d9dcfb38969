"""Fixture: store mutations without lock discipline (A-LOCK, A-LOCK-HELD)."""

import os
import subprocess

from repro.simulator.batch import simulate_batch

__all__ = ["Store"]


class FileLock:
    """Fixture stub."""

    def __enter__(self):
        """Fixture stub."""
        return self

    def __exit__(self, *exc):
        """Fixture stub."""
        return None


class Store:
    """Fixture stub."""

    def lock(self):
        """Fixture stub."""
        return FileLock()

    def put(self, tmp, path):
        """Fixture stub: correctly locked mutation."""
        with self.lock():
            os.replace(tmp, path)
            self._commit(path)

    def _commit(self, path):
        """Fixture stub: only ever called under the lock — always-locked."""
        os.unlink(path + ".tmp")

    def evict(self, path):
        """Fixture stub: unlocked mutation — A-LOCK fires here."""
        os.unlink(path)

    def rebuild(self, path):
        """Fixture stub: slow work under the lock — A-LOCK-HELD fires here."""
        with self.lock():
            subprocess.run(["sync"])
            self._regen(path)

    def _regen(self, path):
        """Fixture stub: transitively slow under the caller's lock."""
        return subprocess.check_output(["du", path])

    def refill(self, cell):
        """Fixture stub: a batch simulation under the lock — A-LOCK-HELD fires here."""
        with self.lock():
            return simulate_batch(cell)
