"""Fixture: a vectorized engine entry point (A-LOCK-HELD target)."""

__all__ = ["simulate_batch"]


def simulate_batch(cell):
    """Fixture stub: long-running by contract."""
    return [cell]
