"""Fixture: wall-clock and OS entropy in the deterministic core (A-TAINT)."""

import os
import time
from datetime import datetime

__all__ = ["stamp"]


def stamp(rng=None):
    """Fixture stub."""
    started = time.time()
    label = datetime.now()
    token = os.urandom(8)
    return started, label, token
