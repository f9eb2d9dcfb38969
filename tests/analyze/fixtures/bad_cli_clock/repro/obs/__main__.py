"""Fixture: a watched package's entry point reading the clock on import."""

import time

STARTED = time.time()
