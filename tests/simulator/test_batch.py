"""Batch-engine equivalence: simulate_batch vs the scalar oracle.

The vectorized engine's whole contract is *bit-identity* with
:func:`repro.simulator.simulate` per replicate — same results, same
traces, same sink snapshots, same RNG stream consumption.  These tests
pin that contract for every vectorized strategy, the scheduling helpers'
edge cases, and the transparent fallbacks.
"""

import numpy as np
import pytest

from repro.core.strategies.outer_random import OuterRandom
from repro.core.strategies.registry import make_strategy
from repro.obs.sink import RecordingSink
from repro.platform import Platform, uniform_speeds
from repro.platform.speeds import StaticSpeedModel, make_scenario
from repro.simulator import has_vector_kernel, simulate, simulate_batch
from repro.simulator.batch import fallback_reason, simulate_sweep, sweep_group_key
import repro.simulator.vector_kernels as vector_kernels
from repro.simulator.vector_kernels import (
    BatchContext,
    _fifo_fix,
    _heap_schedule,
    _pop_schedule,
    kernel_for,
)
from repro.utils.rng import spawn_rngs

VECTORIZED = [
    "RandomOuter",
    "SortedOuter",
    "RandomMatrix",
    "SortedMatrix",
    "MapReduceOuter",
    "MapReduceMatrix",
    "DynamicOuter",
    "DynamicMatrix",
    "DynamicOuter2Phases",
    "DynamicMatrix2Phases",
]


class _SubclassedRandomOuter(OuterRandom):
    """Exact-type registry must not cover subclasses (changed semantics)."""


def assert_same_result(ref, got):
    assert ref.total_blocks == got.total_blocks
    assert ref.n_assignments == got.n_assignments
    assert ref.makespan == got.makespan
    assert ref.strategy_name == got.strategy_name
    assert np.array_equal(ref.per_worker_blocks, got.per_worker_blocks)
    assert np.array_equal(ref.per_worker_tasks, got.per_worker_tasks)
    if ref.trace is None:
        assert got.trace is None
    else:
        assert len(ref.trace.records) == len(got.trace.records)
        for a, b in zip(ref.trace.records, got.trace.records):
            assert (a.time, a.worker, a.blocks, a.tasks, a.duration, a.phase) == (
                b.time,
                b.worker,
                b.blocks,
                b.tasks,
                b.duration,
                b.phase,
            )


def _size(name):
    return 6 if "Matrix" in name else 12


@pytest.mark.parametrize("name", VECTORIZED)
def test_batch_matches_scalar_with_traces(name):
    platform = Platform(uniform_speeds(6, 10, 100, rng=123))
    n = _size(name)
    refs = [
        simulate(make_strategy(name, n), platform, rng=g, collect_trace=True)
        for g in spawn_rngs(321, 3)
    ]
    gots = simulate_batch(
        lambda: make_strategy(name, n),
        [platform] * 3,
        rngs=spawn_rngs(321, 3),
        collect_trace=True,
    )
    for ref, got in zip(refs, gots):
        assert_same_result(ref, got)


@pytest.mark.parametrize("name", VECTORIZED)
def test_batch_consumes_rng_streams_identically(name):
    platform = Platform(uniform_speeds(4, 10, 100, rng=1))
    n = _size(name)
    batch_gens = spawn_rngs(9, 2)
    simulate_batch(lambda: make_strategy(name, n), [platform] * 2, rngs=batch_gens)
    scalar_gens = spawn_rngs(9, 2)
    for g in scalar_gens:
        simulate(make_strategy(name, n), platform, rng=g)
    for bg, sg in zip(batch_gens, scalar_gens):
        assert bg.bit_generator.state == sg.bit_generator.state


@pytest.mark.parametrize("name", VECTORIZED)
def test_batch_on_homogeneous_speeds_ties(name):
    # Equal speeds put every worker's k-th event at the same timestamp, so
    # the pop order is decided purely by the heap's FIFO tie-breaking.
    platform = Platform(np.full(5, 25.0))
    n = _size(name)
    ref = simulate(make_strategy(name, n), platform, rng=7, collect_trace=True)
    got = simulate_batch(
        lambda: make_strategy(name, n), [platform], rngs=[7], collect_trace=True
    )[0]
    assert_same_result(ref, got)


@pytest.mark.parametrize("name", VECTORIZED)
def test_batch_with_fewer_tasks_than_workers(name):
    n = 2
    platform = Platform(uniform_speeds(9, 10, 100, rng=3))
    ref = simulate(make_strategy(name, n), platform, rng=11, collect_trace=True)
    got = simulate_batch(
        lambda: make_strategy(name, n), [platform], rngs=[11], collect_trace=True
    )[0]
    assert_same_result(ref, got)


@pytest.mark.parametrize("name", VECTORIZED)
def test_batch_single_worker(name):
    platform = Platform(np.array([42.0]))
    n = _size(name)
    ref = simulate(make_strategy(name, n), platform, rng=2, collect_trace=True)
    got = simulate_batch(
        lambda: make_strategy(name, n), [platform], rngs=[2], collect_trace=True
    )[0]
    assert_same_result(ref, got)


def test_sink_snapshots_bit_identical():
    platform = Platform(uniform_speeds(6, 10, 100, rng=123))
    for name in VECTORIZED:
        n = _size(name)
        ref_sink, got_sink = RecordingSink(), RecordingSink()
        simulate(make_strategy(name, n), platform, rng=5, sink=ref_sink)
        simulate_batch(
            lambda: make_strategy(name, n), [platform], rngs=[5], sinks=[got_sink]
        )
        assert ref_sink.snapshot() == got_sink.snapshot(), name


# -- scheduling helpers ------------------------------------------------------


def test_pop_schedule_matches_heap_replay():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = int(rng.integers(1, 12))
        total = int(rng.integers(1, 400))
        d = 1.0 / rng.uniform(10, 100, size=p)
        w_ref, t_ref, c_ref, m_ref = _heap_schedule(d, total)
        w, t, c, m = _pop_schedule(d, total)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(c, c_ref)
        assert m == m_ref


def test_pop_schedule_regrows_small_k0():
    d = 1.0 / np.array([100.0, 10.0, 12.0])
    total = 200
    ref = _pop_schedule(d, total)
    tiny = _pop_schedule(d, total, k0=1)
    for a, b in zip(ref[:3], tiny[:3]):
        assert np.array_equal(a, b)
    assert ref[3] == tiny[3]


def test_pop_schedule_homogeneous_is_round_robin():
    d = np.full(4, 0.5)
    w, t, c, m = _pop_schedule(d, 8)
    assert w.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    assert np.array_equal(c, np.full(4, 2))
    assert m == 1.0


def test_fifo_fix_bails_on_same_worker_twice_in_a_tie():
    # Synthetic degenerate schedule: worker 0's first two events at the
    # same timestamp (possible only when fl(t + d) == t).  The exact pop
    # order then depends on heap-internal sequencing the analytic fix
    # cannot reconstruct, so it must hand over to the heap replay.
    p = 2
    flat = np.array([0.0, 0.0, 0.0, 1.0])  # events (k=0,w=0) (k=0,w=1) (k=1,w=0)
    order = np.argsort(flat, kind="stable")
    assert _fifo_fix(flat, order, 3, p) is None


# -- fallbacks and validation ------------------------------------------------


def test_has_vector_kernel_registry():
    for name in VECTORIZED:
        assert has_vector_kernel(make_strategy(name, 4))
    # Exact-type matching: a subclass may change semantics, so it must
    # fall back even though its parent has a kernel.
    assert kernel_for(_SubclassedRandomOuter(4)) is None
    assert not has_vector_kernel(_SubclassedRandomOuter(4))


def test_fallback_reason_strings():
    assert fallback_reason(make_strategy("DynamicOuter2Phases", 4)) is None
    assert fallback_reason(_SubclassedRandomOuter(4)) == "no-kernel"
    assert fallback_reason(make_strategy("RandomOuter", 4, collect_ids=True)) == "collect-ids"
    mixed = [
        Platform(uniform_speeds(3, 10, 100, rng=1)),
        Platform(uniform_speeds(5, 10, 100, rng=2)),
    ]
    assert fallback_reason(make_strategy("RandomOuter", 4), mixed) == "mixed-p"
    platform = Platform(uniform_speeds(3, 10, 100, rng=1))

    class _OddModel(StaticSpeedModel):
        pass

    assert (
        fallback_reason(make_strategy("RandomOuter", 4), [platform], [_OddModel()])
        == "custom-speed-model"
    )
    _, dyn_model = make_scenario("dyn.5", 3, rng=0)
    assert fallback_reason(make_strategy("RandomOuter", 4), [platform], [dyn_model]) is None
    assert (
        fallback_reason(
            make_strategy("RandomOuter", 4), [platform, platform], [dyn_model, dyn_model]
        )
        == "shared-speed-model"
    )


def test_fallback_strategy_without_kernel():
    platform = Platform(uniform_speeds(5, 10, 100, rng=8))
    refs = [
        simulate(_SubclassedRandomOuter(8), platform, rng=g, collect_trace=True)
        for g in spawn_rngs(4, 2)
    ]
    gots = simulate_batch(
        lambda: _SubclassedRandomOuter(8),
        [platform] * 2,
        rngs=spawn_rngs(4, 2),
        collect_trace=True,
    )
    for ref, got in zip(refs, gots):
        assert_same_result(ref, got)


def test_fallback_on_collect_ids():
    platform = Platform(uniform_speeds(4, 10, 100, rng=8))
    ref = simulate(
        make_strategy("RandomOuter", 6, collect_ids=True),
        platform,
        rng=3,
        collect_trace=True,
    )
    got = simulate_batch(
        lambda: make_strategy("RandomOuter", 6, collect_ids=True),
        [platform],
        rngs=[3],
        collect_trace=True,
    )[0]
    assert_same_result(ref, got)
    assert got.trace.records[0].task_ids is not None


@pytest.mark.parametrize("name", VECTORIZED)
def test_dynamic_speed_models_vectorize(name):
    # dyn.* models no longer force the scalar loop: the kernels replay
    # model.duration per event on the replicate's own stream.
    n = _size(name)
    ref_rngs = spawn_rngs(6, 2)
    ref_results = []
    for g in ref_rngs:
        platform, model = make_scenario("dyn.20", 5, rng=g)
        ref_results.append(
            simulate(
                make_strategy(name, n), platform, rng=g, speed_model=model, collect_trace=True
            )
        )
    got_rngs = spawn_rngs(6, 2)
    platforms, models = [], []
    for g in got_rngs:
        platform, model = make_scenario("dyn.20", 5, rng=g)
        platforms.append(platform)
        models.append(model)
    assert fallback_reason(make_strategy(name, n), platforms, models) is None
    gots = simulate_batch(
        lambda: make_strategy(name, n),
        platforms,
        rngs=got_rngs,
        speed_models=models,
        collect_trace=True,
    )
    for ref, got in zip(ref_results, gots):
        assert_same_result(ref, got)
    for bg, sg in zip(got_rngs, ref_rngs):
        assert bg.bit_generator.state == sg.bit_generator.state


def test_fallback_on_custom_speed_model():
    class _OddModel(StaticSpeedModel):
        pass

    platform = Platform(uniform_speeds(4, 10, 100, rng=8))
    ref = simulate(
        make_strategy("RandomOuter", 6), platform, rng=3, speed_model=_OddModel()
    )
    got = simulate_batch(
        lambda: make_strategy("RandomOuter", 6),
        [platform],
        rngs=[3],
        speed_models=[_OddModel()],
    )[0]
    assert_same_result(ref, got)


def test_two_phase_trace_marks_phase_two():
    platform = Platform(uniform_speeds(4, 10, 100, rng=6))
    got = simulate_batch(
        lambda: make_strategy("DynamicOuter2Phases", 10, phase1_fraction=0.5),
        [platform],
        rngs=[4],
        collect_trace=True,
    )[0]
    phases = {rec.phase for rec in got.trace.records}
    assert phases == {1, 2}


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("DynamicOuter2Phases", {"threshold_tasks": 0}),
        ("DynamicOuter2Phases", {"phase1_fraction": 0.0}),
        ("DynamicOuter2Phases", {"threshold_tasks": 10**9}),
        ("DynamicOuter2Phases", {"agnostic": True}),
        ("DynamicMatrix2Phases", {"phase1_fraction": 1.0}),
        ("DynamicMatrix2Phases", {"threshold_tasks": 0}),
        ("DynamicMatrix2Phases", {"beta": 0.0}),
    ],
)
def test_two_phase_threshold_edge_cases(name, kwargs):
    # threshold >= total => phase 2 from the very first event; threshold 0
    # (phase1_fraction 1.0) => pure phase 1.  Both must stay bit-identical.
    n = 5 if "Matrix" in name else 8
    platform = Platform(uniform_speeds(5, 10, 100, rng=2))
    ref = simulate(make_strategy(name, n, **kwargs), platform, rng=13, collect_trace=True)
    got = simulate_batch(
        lambda: make_strategy(name, n, **kwargs), [platform], rngs=[13], collect_trace=True
    )[0]
    assert_same_result(ref, got)


@pytest.mark.parametrize("name", ["DynamicMatrix2Phases", "DynamicMatrix", "RandomMatrix"])
def test_chunked_batch_matches_unchunked(name):
    # A memory budget that forces >= 3 replicate chunks must not change a
    # single bit: replicates never interact, so slicing R is exact.
    n = 6
    R = 9
    platforms = [Platform(uniform_speeds(4, 10, 100, rng=50 + r)) for r in range(R)]
    kernel = kernel_for(make_strategy(name, n))
    budget = 3 * kernel.bytes_per_replicate(make_strategy(name, n), 4)
    assert (R * kernel.bytes_per_replicate(make_strategy(name, n), 4)) / budget >= 3
    full = simulate_batch(
        lambda: make_strategy(name, n), platforms, rngs=spawn_rngs(77, R), collect_trace=True
    )
    chunked = simulate_batch(
        lambda: make_strategy(name, n),
        platforms,
        rngs=spawn_rngs(77, R),
        collect_trace=True,
        memory_budget_bytes=budget,
    )
    for ref, got in zip(full, chunked):
        assert_same_result(ref, got)


def test_memory_budget_validation():
    platform = Platform(uniform_speeds(3, 10, 100, rng=1))
    with pytest.raises(ValueError, match="memory_budget_bytes"):
        simulate_batch(
            lambda: make_strategy("RandomOuter", 4),
            [platform],
            rngs=[1],
            memory_budget_bytes=0,
        )


def test_fallback_on_mixed_worker_counts():
    platforms = [
        Platform(uniform_speeds(3, 10, 100, rng=1)),
        Platform(uniform_speeds(5, 10, 100, rng=2)),
    ]
    refs = [
        simulate(make_strategy("RandomOuter", 6), pl, rng=g)
        for pl, g in zip(platforms, spawn_rngs(0, 2))
    ]
    gots = simulate_batch(
        lambda: make_strategy("RandomOuter", 6), platforms, rngs=spawn_rngs(0, 2)
    )
    for ref, got in zip(refs, gots):
        assert_same_result(ref, got)


def test_empty_batch():
    assert simulate_batch(lambda: make_strategy("RandomOuter", 4), [], rngs=[]) == []


def test_length_validation():
    platform = Platform(uniform_speeds(3, 10, 100, rng=1))
    factory = lambda: make_strategy("RandomOuter", 4)
    with pytest.raises(ValueError, match="rngs"):
        simulate_batch(factory, [platform], rngs=[1, 2])
    with pytest.raises(ValueError, match="speed models"):
        simulate_batch(factory, [platform], rngs=[1], speed_models=[None, None])
    with pytest.raises(ValueError, match="sinks"):
        simulate_batch(factory, [platform], rngs=[1], sinks=[None, None])


# -- simulate_sweep: shared phase-1 groups -----------------------------------


def _assert_sweep_matches(members, platforms, seed, **kwargs):
    """simulate_sweep == per-member simulate_batch == the scalar oracle."""
    factories = [lambda name=name, n=n, kw=kw: make_strategy(name, n, **kw) for name, n, kw in members]
    R = len(platforms)
    got = simulate_sweep(factories, platforms, rngs=spawn_rngs(seed, R), **kwargs)
    assert len(got) == len(members)
    for factory, results in zip(factories, got):
        batch = simulate_batch(factory, platforms, rngs=spawn_rngs(seed, R))
        scalar = [
            simulate(factory(), platform, rng=g)
            for platform, g in zip(platforms, spawn_rngs(seed, R))
        ]
        assert len(results) == R
        for ref, via_batch, res in zip(scalar, batch, results):
            assert_same_result(ref, res)
            assert_same_result(via_batch, res)


@pytest.mark.parametrize("kernel,n,p", [("Outer", 12, 5), ("Matrix", 6, 7)])
def test_sweep_matches_batch_and_scalar(kernel, n, p):
    two_phase = f"Dynamic{kernel}2Phases"
    members = [
        (two_phase, n, {"beta": 1.0}),
        (f"Dynamic{kernel}", n, {}),
        (two_phase, n, {"beta": 1.0}),  # duplicate beta
        (two_phase, n, {"beta": 2.5}),
        (two_phase, n, {"beta": 0.0}),  # threshold == task count: first pop
        (two_phase, n, {"threshold_tasks": 10**6}),
        (two_phase, n, {"threshold_tasks": 3}),
        (two_phase, n, {"phase1_fraction": 0.4}),
        (two_phase, n, {"phase1_fraction": 1.0}),  # threshold 0: never forks
        (two_phase, n, {}),  # auto beta
        (two_phase, n, {"agnostic": True}),
    ]
    platforms = [Platform(uniform_speeds(p, 10, 100, rng=40 + r)) for r in range(4)]
    _assert_sweep_matches(members, platforms, seed=17)


def test_sweep_threshold_phase_one_never_reaches():
    # n=30, p=6, beta=6: threshold round(e^-6 * 900) = 2, but phase 1's
    # last step jumps past it, so the scalar run never enters phase 2.
    platforms = [Platform(uniform_speeds(6, 10, 100, rng=r)) for r in range(3)]
    never = [
        simulate(make_strategy("DynamicOuter2Phases", 30, beta=6.0), platform, rng=g, collect_trace=True)
        for platform, g in zip(platforms, spawn_rngs(5, 3))
    ]
    assert any({rec.phase for rec in res.trace.records} == {1} for res in never)
    members = [("DynamicOuter2Phases", 30, {"beta": 6.0}), ("DynamicOuter2Phases", 30, {"beta": 2.0})]
    # Without a Dynamic member the unreached member alone keeps phase 1 going.
    _assert_sweep_matches(members, platforms, seed=5)
    _assert_sweep_matches(members + [("DynamicOuter", 30, {})], platforms, seed=5)


def test_sweep_auto_beta_thresholds_differ_per_replicate():
    from repro.experiments.parallel import UniformPlatformSpec

    spec = UniformPlatformSpec(8)
    gens = spawn_rngs(23, 5)
    platforms = [spec(g) for g in gens]
    thresholds = {make_strategy("DynamicMatrix2Phases", 6).resolve_threshold(pl) for pl in platforms}
    assert len(thresholds) > 1
    members = [("DynamicMatrix2Phases", 6, {}), ("DynamicMatrix", 6, {}), ("DynamicMatrix2Phases", 6, {"beta": 1.5})]
    factories = [lambda name=name, kw=kw: make_strategy(name, 6, **kw) for name, _, kw in members]
    got = simulate_sweep(factories, platforms, rngs=gens)
    for factory, results in zip(factories, got):
        ref_gens = spawn_rngs(23, 5)
        ref_platforms = [spec(g) for g in ref_gens]
        for ref, res in zip(simulate_batch(factory, ref_platforms, rngs=ref_gens), results):
            assert_same_result(ref, res)


@pytest.mark.parametrize("kernel", ["Outer", "Matrix"])
def test_sweep_chunked_matches_unchunked(kernel):
    n = 10 if kernel == "Outer" else 5
    R = 7
    members = [
        (f"Dynamic{kernel}", n, {}),
        (f"Dynamic{kernel}2Phases", n, {"beta": 1.0}),
        (f"Dynamic{kernel}2Phases", n, {"beta": 3.0}),
    ]
    prototypes = [make_strategy(name, n, **kw) for name, _, kw in members]
    kernel_obj = kernel_for(prototypes[0])
    per_rep = max(kernel_obj.bytes_per_replicate(proto, 4) for proto in prototypes)
    budget = 3 * per_rep
    assert -(-R // 3) >= 3  # at least three chunks
    platforms = [Platform(uniform_speeds(4, 10, 100, rng=60 + r)) for r in range(R)]
    _assert_sweep_matches(members, platforms, seed=8, memory_budget_bytes=budget)


def test_sweep_generators_end_where_longest_phase_one_stopped():
    platforms = [Platform(uniform_speeds(5, 10, 100, rng=r)) for r in range(3)]
    two = lambda: make_strategy("DynamicOuter2Phases", 12, beta=1.0)
    dyn = lambda: make_strategy("DynamicOuter", 12)
    # One member: exactly simulate_batch's stream consumption.
    alone, batch = spawn_rngs(4, 3), spawn_rngs(4, 3)
    simulate_sweep([two], platforms, rngs=alone)
    simulate_batch(two, platforms, rngs=batch)
    assert [g.bit_generator.state for g in alone] == [g.bit_generator.state for g in batch]
    # Several: forks draw from copies; the Dynamic member runs phase 1 out.
    group, dyn_only = spawn_rngs(4, 3), spawn_rngs(4, 3)
    simulate_sweep([two, dyn], platforms, rngs=group)
    simulate_batch(dyn, platforms, rngs=dyn_only)
    assert [g.bit_generator.state for g in group] == [g.bit_generator.state for g in dyn_only]


def test_sweep_validation():
    platform = Platform(uniform_speeds(4, 10, 100, rng=1))
    dyn = lambda: make_strategy("DynamicOuter", 8)
    with pytest.raises(ValueError, match="static speeds"):
        _, model = make_scenario("dyn.5", 4, rng=0)
        simulate_sweep([dyn], [platform], rngs=[1], speed_models=[model])
    with pytest.raises(ValueError, match="share one"):
        simulate_sweep([dyn, lambda: make_strategy("DynamicMatrix", 8)], [platform], rngs=[1])
    with pytest.raises(ValueError, match="share one"):
        simulate_sweep([dyn, lambda: make_strategy("DynamicOuter", 9)], [platform], rngs=[1])
    # Every strategy of one product shares its kernel: a baseline joins the group.
    rnd = lambda: make_strategy("RandomOuter", 8)
    swept = simulate_sweep([dyn, rnd], [platform], rngs=[5])
    for factory, (got,) in zip([dyn, rnd], swept):
        assert_same_result(simulate_batch(factory, [platform], rngs=[5])[0], got)
    with pytest.raises(ValueError, match="share one"):
        simulate_sweep([rnd, lambda: make_strategy("RandomMatrix", 8)], [platform], rngs=[1])
    with pytest.raises(ValueError, match="rngs"):
        simulate_sweep([dyn], [platform], rngs=[1, 2])
    with pytest.raises(ValueError, match="memory_budget_bytes"):
        simulate_sweep([dyn], [platform], rngs=[1], memory_budget_bytes=0)
    mixed = [platform, Platform(uniform_speeds(5, 10, 100, rng=2))]
    with pytest.raises(ValueError, match="worker count"):
        simulate_sweep([dyn], mixed, rngs=[1, 2])
    static = simulate_sweep([dyn], [platform], rngs=[3], speed_models=[StaticSpeedModel()])
    assert_same_result(simulate(dyn(), platform, rng=3), static[0][0])
    assert simulate_sweep([], [platform], rngs=[1]) == []
    assert simulate_sweep([dyn], [], rngs=[]) == [[]]


def test_sweep_group_key():
    assert sweep_group_key(make_strategy("DynamicOuter", 8)) == ("outer", 8)
    assert sweep_group_key(make_strategy("DynamicOuter2Phases", 8, beta=2.0)) == ("outer", 8)
    assert sweep_group_key(make_strategy("DynamicMatrix2Phases", 5)) == ("matrix", 5)
    for name in ("RandomOuter", "SortedOuter", "MapReduceOuter"):
        assert sweep_group_key(make_strategy(name, 8)) == ("outer", 8)
    for name in ("RandomMatrix", "SortedMatrix", "MapReduceMatrix"):
        assert sweep_group_key(make_strategy(name, 5)) == ("matrix", 5)
    assert sweep_group_key(make_strategy("DynamicOuter", 8, collect_ids=True)) is None
    assert sweep_group_key(make_strategy("RandomOuter", 8, collect_ids=True)) is None


# -- one kernel per product: members that leave the loop at their first pop ---


def _every_member(kernel, n):
    """All five strategies of a product, plus two-phase members without a phase 1."""
    total = n * n if kernel == "Outer" else n**3
    two_phase = f"Dynamic{kernel}2Phases"
    names = [f"Random{kernel}", f"Sorted{kernel}", f"MapReduce{kernel}", f"Dynamic{kernel}", two_phase]
    return [(name, n, {}) for name in names] + [
        (two_phase, n, {"beta": 0.0}),
        (two_phase, n, {"phase1_fraction": 0.0}),
        (two_phase, n, {"threshold_tasks": total}),
        (two_phase, n, {"threshold_tasks": total + 7}),
    ]


def _first_pop_members(kernel, n):
    return [m for m in _every_member(kernel, n) if m[2] or not m[0].startswith("Dynamic")]


@pytest.mark.parametrize("kernel,n,p", [("Outer", 12, 5), ("Matrix", 6, 4)])
@pytest.mark.parametrize("first_pop_only", [False, True])
def test_sweep_of_every_strategy_matches_batch_and_scalar(kernel, n, p, first_pop_only):
    members = (_first_pop_members if first_pop_only else _every_member)(kernel, n)
    platforms = [Platform(uniform_speeds(p, 10, 100, rng=70 + r)) for r in range(3)]
    _assert_sweep_matches(members, platforms, seed=21)
    # Every fork draws from a copy: the generators end where the longest
    # phase 1 stopped, which is where they started without a phase 1.
    gens = spawn_rngs(21, 3)
    factories = [lambda name=name, kw=kw: make_strategy(name, n, **kw) for name, _, kw in members]
    simulate_sweep(factories, platforms, rngs=gens)
    expected = spawn_rngs(21, 3)
    if not first_pop_only:
        simulate_batch(lambda: make_strategy(f"Dynamic{kernel}", n), platforms, rngs=expected)
    assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in expected]


@pytest.mark.parametrize("kernel,n,p", [("Outer", 12, 5), ("Matrix", 6, 4)])
@pytest.mark.parametrize("first_pop_only", [False, True])
def test_group_events_match_scalar_traces(kernel, n, p, first_pop_only):
    # simulate_sweep replays no events; the kernel's group call does, one
    # trace per member from one shared schedule per fork.
    members = (_first_pop_members if first_pop_only else _every_member)(kernel, n)
    prototypes = [make_strategy(name, n, **kw) for name, _, kw in members]
    platforms = [Platform(uniform_speeds(p, 10, 100, rng=80 + r)) for r in range(3)]
    speeds = np.stack([platform.speeds for platform in platforms])
    ctx = BatchContext(platforms, speeds, spawn_rngs(22, 3), [None] * 3, True)
    runs = kernel_for(prototypes[0]).run_group(prototypes, ctx)
    for (name, _, kw), member_runs in zip(members, runs):
        for platform, g, run in zip(platforms, spawn_rngs(22, 3), member_runs):
            ref = simulate(make_strategy(name, n, **kw), platform, rng=g, collect_trace=True)
            assert (run.makespan, run.n_assignments) == (ref.makespan, ref.n_assignments)
            assert np.array_equal(run.per_worker_blocks, ref.per_worker_blocks)
            assert np.array_equal(run.per_worker_tasks, ref.per_worker_tasks)
            assert run.events == [
                (rec.time, rec.worker, rec.blocks, rec.tasks, rec.duration, rec.phase)
                for rec in ref.trace.records
            ]


def _counting(monkeypatch, name):
    calls = []
    real = getattr(vector_kernels, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(vector_kernels, name, spy)
    return calls


@pytest.mark.parametrize("kernel,n", [("Outer", 12), ("Matrix", 5)])
def test_first_pop_members_share_one_pop_schedule_per_replicate(monkeypatch, kernel, n):
    schedules = _counting(monkeypatch, "_pop_schedule")
    members = _first_pop_members(kernel, n) + [(f"Dynamic{kernel}", n, {})]
    factories = [lambda name=name, kw=kw: make_strategy(name, n, **kw) for name, _, kw in members]
    platforms = [Platform(uniform_speeds(4, 10, 100, rng=90 + r)) for r in range(3)]
    simulate_sweep(factories, platforms, rngs=spawn_rngs(23, 3))
    assert len(schedules) == 3


@pytest.mark.parametrize("kernel,n", [("Outer", 12), ("Matrix", 5)])
def test_no_lockstep_state_when_every_member_leaves_at_its_first_pop(monkeypatch, kernel, n):
    names = ("_OuterDynState", "_MatrixDynState", "_LockstepAccumulator", "bounded_draws")
    built = {name: _counting(monkeypatch, name) for name in names}
    members = _first_pop_members(kernel, n)
    factories = [lambda name=name, kw=kw: make_strategy(name, n, **kw) for name, _, kw in members]
    platforms = [Platform(uniform_speeds(4, 10, 100, rng=r)) for r in range(3)]
    simulate_sweep(factories, platforms, rngs=spawn_rngs(24, 3))
    for factory in factories:
        simulate_batch(factory, platforms, rngs=spawn_rngs(24, 3))
    assert not any(built.values())
    # A member with a phase 1 does build it.
    simulate_batch(lambda: make_strategy(f"Dynamic{kernel}", n), platforms, rngs=spawn_rngs(24, 3))
    assert built[f"_{kernel}DynState"]


# -- figure-shaped batches: R = 5, one platform per replicate -----------------

_FIGURE_CELLS = [("DynamicOuter", 40), ("DynamicMatrix", 12)]


def _figure_platforms(R=5, p=20):
    # Each replicate draws its own platform, as the figure sweeps do, so the
    # replicates leave the lockstep loop at different steps.
    return [Platform(uniform_speeds(p, 10, 100, rng=900 + r)) for r in range(R)]


@pytest.mark.parametrize("name,n", _FIGURE_CELLS)
def test_figure_shaped_batch_matches_scalar(name, n):
    platforms = _figure_platforms()
    ref_gens = spawn_rngs(31, len(platforms))
    refs = [
        simulate(make_strategy(name, n), platform, rng=g, collect_trace=True)
        for platform, g in zip(platforms, ref_gens)
    ]
    assert len({ref.n_assignments for ref in refs}) > 1
    gens = spawn_rngs(31, len(platforms))
    gots = simulate_batch(
        lambda: make_strategy(name, n), platforms, rngs=gens, collect_trace=True
    )
    for ref, got in zip(refs, gots):
        assert_same_result(ref, got)
    for bg, sg in zip(gens, ref_gens):
        assert bg.bit_generator.state == sg.bit_generator.state


@pytest.mark.parametrize("name,n", _FIGURE_CELLS)
def test_figure_shaped_sweep_matches_scalar(name, n):
    members = [
        (f"{name}2Phases", n, {"beta": 1.0}),
        (name, n, {}),
        (f"{name}2Phases", n, {"beta": 2.5}),
    ]
    _assert_sweep_matches(members, _figure_platforms(), seed=37)


def test_figure_shaped_dynamic_speeds_match_scalar():
    # dyn.* replicates on their own platforms: some run lockstep phase 2
    # on frozen caches while others are still in phase 1.
    name, n, R = "DynamicOuter2Phases", 40, 5

    def scenario(gens):
        pairs = [make_scenario("dyn.20", 20, rng=g) for g in gens]
        return [platform for platform, _ in pairs], [model for _, model in pairs]

    ref_gens = spawn_rngs(41, R)
    platforms, models = scenario(ref_gens)
    refs = [
        simulate(make_strategy(name, n), platform, rng=g, speed_model=model, collect_trace=True)
        for platform, g, model in zip(platforms, ref_gens, models)
    ]
    gens = spawn_rngs(41, R)
    platforms, models = scenario(gens)
    gots = simulate_batch(
        lambda: make_strategy(name, n),
        platforms,
        rngs=gens,
        speed_models=models,
        collect_trace=True,
    )
    assert len({ref.n_assignments for ref in refs}) > 1
    for ref, got in zip(refs, gots):
        assert {rec.phase for rec in got.trace.records} == {1, 2}
        assert_same_result(ref, got)
    for bg, sg in zip(gens, ref_gens):
        assert bg.bit_generator.state == sg.bit_generator.state
