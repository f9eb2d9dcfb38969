"""Fixture: nondeterminism sources in import-time code (A-TAINT)."""

import os
import time
from datetime import datetime

__all__ = ["Run"]

_EPOCH = time.time()
_ID = os.getpid()


class Run:
    """Fixture stub: a class attribute evaluated when the module loads."""

    created = datetime.now()
