"""Advisory file locking so parallel replicates share one cache safely.

Writers (``put``, ``gc``, journal appends) serialize on a single lock file
per store; readers never lock because every write is an atomic
``os.replace`` of a complete file.  ``fcntl.flock`` is used where available
(POSIX); elsewhere an ``O_EXCL`` lock file with stale-lock breaking keeps
the store usable, if slightly more conservative.
"""

from __future__ import annotations

import contextlib
import os
import time
from types import TracebackType
from typing import Optional, Type

try:  # pragma: no cover - platform-dependent import
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileLock", "LockTimeout"]

#: Age (seconds) past which an ``O_EXCL`` fallback lock file is presumed
#: abandoned by a dead process and broken.  Generous: cache writes are
#: small JSON files, never multi-minute operations.
_STALE_AFTER = 60.0


class LockTimeout(OSError):
    """Raised when the lock could not be acquired within the timeout."""


class FileLock:
    """A reentrant-unfriendly, inter-process advisory lock on one file.

    Use as a context manager::

        with FileLock(os.path.join(root, ".lock")):
            ...  # exclusive access to the store's mutating operations

    Acquisition polls (non-blocking attempt + short sleep) so a configurable
    *timeout* applies on every platform; the default is far above any real
    contention window for JSON-sized writes.
    """

    def __init__(self, path: str, *, timeout: float = 30.0, poll_interval: float = 0.02) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.path = str(path)
        self.timeout = float(timeout)
        self.poll_interval = float(poll_interval)
        self._fd: Optional[int] = None
        self._exclusive_file = False

    # -- acquisition strategies ---------------------------------------------

    def _try_flock(self) -> bool:
        """One non-blocking ``fcntl.flock`` attempt; True on success."""
        assert fcntl is not None
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def _try_exclusive_create(self) -> bool:
        """One ``O_EXCL`` create attempt, breaking stale leftovers; True on success."""
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            with contextlib.suppress(OSError):
                if time.time() - os.path.getmtime(self.path) > _STALE_AFTER:
                    os.unlink(self.path)  # abandoned by a dead process
            return False
        self._fd = fd
        self._exclusive_file = True
        return True

    # -- public API -----------------------------------------------------------

    def acquire(self) -> None:
        """Block (poll) until the lock is held; raise :class:`LockTimeout`."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path!r} is already held by this object")
        attempt = self._try_flock if fcntl is not None else self._try_exclusive_create
        deadline = time.monotonic() + self.timeout
        while True:
            if attempt():
                return
            if time.monotonic() >= deadline:
                raise LockTimeout(f"could not acquire {self.path!r} within {self.timeout}s")
            time.sleep(self.poll_interval)

    def release(self) -> None:
        """Drop the lock; a no-op if it is not held."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if fcntl is not None and not self._exclusive_file:
            with contextlib.suppress(OSError):
                fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
        if self._exclusive_file:
            self._exclusive_file = False
            with contextlib.suppress(OSError):
                os.unlink(self.path)

    @property
    def held(self) -> bool:
        """Whether this object currently holds the lock."""
        return self._fd is not None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()
