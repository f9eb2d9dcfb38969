"""Fixture: a CLI outside the deterministic packages is a sanitized boundary."""

import time

from repro.simulator.engine import simulate

__all__ = ["main"]


def main():
    """Fixture stub: wall-clock use in a CLI is sanctioned."""
    started = time.time()
    simulate(None, None, None)
    return started
