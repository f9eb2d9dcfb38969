"""Fingerprint regression tests: pin the exact outputs of fault-aware runs.

:mod:`tests.simulator.test_fingerprints` pins the fault-free model; these
values pin the fault path of :func:`repro.simulator.simulate` — crashes,
slowdowns, lost messages and both proactive recovery policies — for one
strategy of each family.  Besides the totals and every
:class:`~repro.simulator.results.FaultStats` field, each row pins a sha256
of the full serialized result (trace and fault records included) and of
the sink's event stream, so any change to the pops, strategy calls, RNG
draws or event order shows up here.  Update the table only for a
deliberate, documented engine change.
"""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest

from repro.core.strategies.registry import make_strategy
from repro.faults import FaultSchedule, HeartbeatTimeout, ReplicateTail
from repro.faults.models import Slowdown
from repro.obs import RecordingSink
from repro.platform import Platform, uniform_speeds
from repro.simulator import result_to_json, simulate

SIZES = {"DynamicOuter": 16, "RandomMatrix": 8, "DynamicMatrix2Phases": 8}

# (total_blocks, n_assignments, makespan, per_worker_blocks, FaultStats
# fields in declaration order, sha256 of result_to_json, sha256 of the sink
# events) for Platform(uniform_speeds(6, 10, 100, rng=123)), rng=5 and the
# scenarios built by _scenario().
FINGERPRINTS = {
    ("DynamicOuter", "crash"): (
        358, 180, 1.537971239087013, [68, 38, 54, 72, 36, 90],
        (20, 20, 0, 0, 40, 248, 106, 106, 0, 0),
        "c940b4b78f2655896f550df5eac87c6bd56be2216ce183fed31efc67a96fb81b",
        "db18ad0dc979e50dabd22f2d17a775142f90f1df81d0ffcf8d87ef6145229faa",
    ),
    ("DynamicOuter", "slow_loss"): (
        140, 70, 1.307303970489747, [32, 20, 20, 22, 14, 32],
        (0, 0, 7, 0, 14, 0, 26, 26, 0, 0),
        "b53ee77176925a68dd38590ab9c52c83d12e59396076d62aa3cc796c3630783d",
        "f9a23f02bb48545eb12f1b9406362cdf23ec739fa4f12011805799711a6aa53b",
    ),
    ("DynamicOuter", "heartbeat"): (
        132, 66, 1.48209111573889, [24, 18, 28, 2, 28, 32],
        (0, 0, 0, 1, 0, 0, 1, 1, 0, 0),
        "a5736a809d741bff4e5d38eed9136a4103e0da19dfdc201d5fe8c52e962a3346",
        "6f5fe6ffc4af104c2b1b8da4e3b4b62c9d6d8e4565be669460a0a16b64df05fd",
    ),
    ("DynamicOuter", "replicate"): (
        180, 69, 1.4323579914843738, [24, 18, 56, 2, 46, 34],
        (0, 0, 0, 0, 0, 0, 0, 0, 24, 0),
        "bd223c5d6fdca168158cd26aa2afb251de76afd5f59cf3dafa6607ad5325dcb5",
        "bd91a29fa8fae1f67eb7c4cc509eb710e5b42fce3aa96d45e252896229d8f64c",
    ),
    ("RandomMatrix", "crash"): (
        1274, 529, 2.6512441718672277, [304, 84, 172, 175, 145, 394],
        (17, 16, 0, 0, 30, 1045, 17, 17, 0, 0),
        "c1aee70bc12ece0947b495b3e70ac01232e22cad78fff9e3370dece9059691ce",
        "ac8b95017d97721a99a7c9f79d11f9b3f52f9d0e626b247d784e44e7ac296fcf",
    ),
    ("RandomMatrix", "slow_loss"): (
        791, 538, 2.4926077855608604, [186, 81, 137, 102, 96, 189],
        (0, 0, 26, 0, 39, 0, 26, 26, 0, 0),
        "3a5ad99f1fd2b6b79b40fe8539a599fe36e0757a6fa22748fe12caab6fed9dfd",
        "823a1e7a40af37396d9035d84c45999f1607bcfbf7c4b907ba71f79f557ded4f",
    ),
    ("RandomMatrix", "heartbeat"): (
        710, 514, 2.290504451596467, [186, 80, 123, 6, 127, 188],
        (0, 0, 0, 2, 0, 0, 2, 2, 0, 1),
        "c0b342b45a3c6097bee30cde0099d0dfffb4420cb8ce1971671b098618b30250",
        "29277410e5188063ae0107c94f498f8ce64bfff5999b3d00db40fbc5b174cb5f",
    ),
    ("RandomMatrix", "replicate"): (
        721, 516, 2.284030310745355, [190, 84, 126, 6, 123, 192],
        (0, 0, 0, 0, 0, 0, 0, 0, 4, 1),
        "36a5d32a5f24707255b64dac630b1b423edbdaf2ddd21f32d74f03c3c915d6ce",
        "5876fdd2e204cc50e115c24a28044971fe85b3fde93f8f99bc7c507109cc1fb8",
    ),
    ("DynamicMatrix2Phases", "crash"): (
        1323, 161, 3.5142585834149402, [294, 131, 163, 204, 151, 380],
        (23, 21, 0, 0, 408, 1002, 374, 374, 0, 0),
        "c59205f2b6d2d52214866c4538b15a8779673ca2465fa7cf1c704ec3fae0f9e9",
        "f260824b007f85bcc982dd4f27b65f1e7823618e334a818a2f6a2fdef0ffeb39",
    ),
    ("DynamicMatrix2Phases", "slow_loss"): (
        601, 79, 3.150937775026569, [173, 58, 108, 91, 48, 123],
        (0, 0, 7, 0, 63, 0, 78, 78, 0, 0),
        "1b18560053ec6ef9d5ec794538472f24a55fe66a6d210cce4afcb1b0e67fdaf2",
        "7ea1a34e749311f509df99d138c67367f4f948e600acec2af5d6f2690484ce68",
    ),
    ("DynamicMatrix2Phases", "heartbeat"): (
        509, 74, 2.559975563548992, [150, 48, 82, 6, 76, 147],
        (0, 0, 0, 2, 0, 0, 2, 2, 0, 1),
        "a23714a07f9e753ea786378c8279ca9e524887ef34b54651b10f34f785f54173",
        "e02d132139c473bd0e552a62484c18e157ea17484f4b3c52b801a1a2f1d18868",
    ),
    ("DynamicMatrix2Phases", "replicate"): (
        556, 76, 2.4645832493125797, [195, 48, 87, 6, 73, 147],
        (0, 0, 0, 0, 0, 0, 0, 0, 18, 1),
        "d61d8a04e3d43953a9c884fad65bfb8877c96f4afca136211de6e25fd88cad1b",
        "d50aeedc993e6167e9927b321dc20fab478a9b5635970c96c1e94f8a45ff2208",
    ),
}


def _scenario(name, p, nominal):
    """Schedule and policy of one scenario; *nominal* is total work / total speed."""
    if name == "crash":
        schedule = FaultSchedule.draw(
            p, 4.0 * nominal, rng=17, crash_rate=2.0 / nominal, mean_downtime=0.1 * nominal
        )
        return schedule, None
    if name == "slow_loss":
        schedule = FaultSchedule.draw(
            p,
            4.0 * nominal,
            rng=29,
            slowdown_rate=2.0 / nominal,
            slowdown_factor=3.0,
            mean_slowdown=0.2 * nominal,
            loss_prob=0.05,
        )
        return schedule, None
    straggler = FaultSchedule(slowdowns=(Slowdown(3, 0.0, 1000.0 * nominal, 50.0),))
    if name == "heartbeat":
        return straggler, HeartbeatTimeout(k=2.0)
    return straggler, ReplicateTail(beta=1.0)


@pytest.mark.parametrize("name, scenario", sorted(FINGERPRINTS))
def test_fault_path_fingerprint(name, scenario):
    platform = Platform(uniform_speeds(6, 10, 100, rng=123))
    n = SIZES[name]
    work = n**2 if "Outer" in name else n**3
    schedule, policy = _scenario(scenario, platform.p, work / float(platform.speeds.sum()))
    sink = RecordingSink(events=True)
    result = simulate(
        make_strategy(name, n, collect_ids=True),
        platform,
        schedule=schedule,
        policy=policy,
        rng=5,
        collect_trace=True,
        sink=sink,
    )
    blocks, assignments, makespan, per_worker, faults, result_sha, sink_sha = FINGERPRINTS[
        (name, scenario)
    ]
    assert result.total_blocks == blocks
    assert result.n_assignments == assignments
    assert result.makespan == makespan
    assert np.array_equal(result.per_worker_blocks, np.array(per_worker))
    assert result.faults is not None
    assert astuple(result.faults) == faults
    assert hashlib.sha256(result_to_json(result).encode()).hexdigest() == result_sha
    events = json.dumps(sink.events, sort_keys=True).encode()
    assert hashlib.sha256(events).hexdigest() == sink_sha
