"""Fingerprint regression tests: pin the engine's exact outputs.

:func:`repro.simulator.simulate` promises that a run under an empty fault
schedule is bit-identical to the run without one, which is only meaningful
if the fault-free model itself never drifts (the fault paths are pinned in
``tests/faults/test_fingerprints.py``).  These values were captured from
the engine at the point the fault subsystem was introduced;
any change here means simulation semantics (or RNG consumption) changed,
which silently invalidates every recorded experiment.  Update the table
only for a deliberate, documented engine change.
"""

import numpy as np
import pytest

from repro.core.strategies.registry import make_strategy, strategy_names
from repro.platform import Platform, uniform_speeds
from repro.simulator import simulate

# (total_blocks, n_assignments, makespan, per_worker_blocks) for
# Platform(uniform_speeds(6, 10, 100, rng=123)), simulate(..., rng=321),
# n=16 for outer-product strategies and n=8 for matrix strategies.
FINGERPRINTS = {
    "RandomOuter": (164, 256, 1.0452342100021113, [32, 19, 28, 27, 26, 32]),
    "SortedOuter": (181, 256, 1.0452342100021113, [32, 26, 30, 30, 31, 32]),
    "DynamicOuter": (134, 67, 1.2126200037863648, [28, 18, 22, 18, 18, 30]),
    "DynamicOuter2Phases": (125, 68, 1.2126200037863648, [26, 18, 16, 18, 19, 28]),
    "MapReduceOuter": (512, 256, 1.0452342100021113, [144, 30, 62, 54, 54, 168]),
    "RandomMatrix": (787, 512, 2.0884011176320736, [181, 74, 123, 111, 113, 185]),
    "SortedMatrix": (886, 512, 2.0884011176320736, [185, 88, 147, 138, 137, 191]),
    "DynamicMatrix": (639, 35, 2.1783999928160416, [108, 48, 108, 75, 108, 192]),
    "DynamicMatrix2Phases": (555, 81, 2.105780660388833, [119, 54, 94, 75, 70, 143]),
    "MapReduceMatrix": (1536, 512, 2.0884011176320736, [435, 93, 183, 162, 159, 504]),
}


def test_every_registered_strategy_is_pinned():
    assert sorted(FINGERPRINTS) == sorted(strategy_names())


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_engine_fingerprint(name):
    platform = Platform(uniform_speeds(6, 10, 100, rng=123))
    n = 8 if "Matrix" in name else 16
    result = simulate(make_strategy(name, n), platform, rng=321)
    blocks, assignments, makespan, per_worker = FINGERPRINTS[name]
    assert result.total_blocks == blocks
    assert result.n_assignments == assignments
    assert result.makespan == makespan
    assert np.array_equal(result.per_worker_blocks, np.array(per_worker))
