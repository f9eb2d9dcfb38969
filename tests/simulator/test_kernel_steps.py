"""The vector kernels' per-event steps against their scalar oracles.

Four shortcuts keep the kernels cheap per event, and each is pinned here
against the code it replaces: the bounded draws on non-PCG64 streams
(which must fall back to ``Generator.integers``), the one-task ``dyn.*``
step against :meth:`DynamicSpeedModel.duration`, the loop-free
swap-remove replay against the loop, and the worker-major pop schedule
against the heap.
"""

import numpy as np
import pytest

from repro.core.strategies.registry import make_strategy
from repro.platform import Platform, uniform_speeds
from repro.platform.speeds import DynamicSpeedModel, make_scenario
from repro.simulator import simulate, simulate_batch
from repro.simulator.batch import simulate_sweep
from repro.simulator.vector_kernels import (
    _heap_schedule,
    _LockstepAccumulator,
    _pop_schedule,
    _replay_draws,
)
from repro.utils.rng import bounded_draws, raw_draw_fallback

from tests.simulator.test_batch import assert_same_result

_OTHER_BIT_GENERATORS = [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]


def _streams(bit_generator, seed, R):
    return [np.random.Generator(bit_generator(seed + r)) for r in range(R)]


# -- bounded draws off PCG64: the integers fallback --------------------------


@pytest.mark.parametrize("bit_generator", _OTHER_BIT_GENERATORS)
@pytest.mark.parametrize("name", ["DynamicOuter", "DynamicMatrix2Phases"])
def test_batch_on_other_bit_generators_matches_scalar(bit_generator, name):
    n = 12 if "Outer" in name else 6
    platforms = [Platform(uniform_speeds(5, 10, 100, rng=r)) for r in range(3)]
    refs = [
        simulate(make_strategy(name, n), platform, rng=g, collect_trace=True)
        for platform, g in zip(platforms, _streams(bit_generator, 11, 3))
    ]
    gens = _streams(bit_generator, 11, 3)
    assert {raw_draw_fallback(g) for g in gens} == {f"bit-generator:{bit_generator.__name__}"}
    assert bounded_draws(gens[0]).fallback == f"bit-generator:{bit_generator.__name__}"
    gots = simulate_batch(lambda: make_strategy(name, n), platforms, rngs=gens, collect_trace=True)
    for ref, got in zip(refs, gots):
        assert_same_result(ref, got)


@pytest.mark.parametrize("bit_generator", _OTHER_BIT_GENERATORS)
def test_sweep_on_other_bit_generators_matches_scalar(bit_generator):
    n = 12
    platforms = [Platform(uniform_speeds(4, 10, 100, rng=20 + r)) for r in range(3)]
    members = [
        ("DynamicOuter", {}),
        ("DynamicOuter2Phases", {"beta": 1.0}),
        ("DynamicOuter2Phases", {"beta": 2.5}),
    ]
    factories = [lambda name=name, kw=kw: make_strategy(name, n, **kw) for name, kw in members]
    results = simulate_sweep(factories, platforms, rngs=_streams(bit_generator, 3, 3))
    for factory, got_member in zip(factories, results):
        for r, got in enumerate(got_member):
            ref = simulate(factory(), platforms[r], rng=_streams(bit_generator, 3, 3)[r])
            assert_same_result(ref, got)


@pytest.mark.parametrize("bit_generator", _OTHER_BIT_GENERATORS)
@pytest.mark.parametrize("name", ["RandomOuter", "DynamicOuter2Phases"])
def test_dynamic_speeds_on_other_bit_generators_match_scalar(bit_generator, name):
    def run(batch):
        gens = _streams(bit_generator, 30, 2)
        pairs = [make_scenario("dyn.20", 4, rng=g) for g in gens]
        platforms = [platform for platform, _ in pairs]
        models = [model for _, model in pairs]
        if batch:
            return simulate_batch(
                lambda: make_strategy(name, 10), platforms, rngs=gens, speed_models=models, collect_trace=True
            )
        return [
            simulate(make_strategy(name, 10), pl, rng=g, speed_model=m, collect_trace=True)
            for pl, g, m in zip(platforms, gens, models)
        ]

    for ref, got in zip(run(False), run(True)):
        assert_same_result(ref, got)


# -- the one-task dyn.* step ----------------------------------------------------


def test_one_task_step_matches_duration_including_the_floor():
    # Workers 0 and 1 start below the 1e-9 speed floor, worker 2 at it.
    speeds = np.array([1e-12, 5e-10, 1e-9, 1.0, 90.0])
    steps = [(w, 1) for w in (0, 1, 2, 3, 4) * 6] + [(3, 4), (0, 2), (4, 0), (1, 1), (4, 3), (2, 1)]
    oracle, kernel = DynamicSpeedModel(0.2), DynamicSpeedModel(0.2)
    reference, generator = np.random.default_rng(5), np.random.default_rng(5)
    oracle.reset(Platform(speeds), reference)
    kernel.reset(Platform(speeds), generator)
    acc = _LockstepAccumulator("dyn", speeds[None, :], [kernel], [generator], 4, True)
    expected = []
    for w, tasks in steps:
        expected.append(oracle.duration(w, tasks))
        acc.commit(0, 0.0, w, 0, tasks)
    (run,) = acc.finish()
    assert [event[4] for event in run.events] == expected
    assert expected[0] == 1.0 / 1e-9  # the floor, not 1e12
    assert [kernel.current_speed(w) for w in range(5)] == [oracle.current_speed(w) for w in range(5)]
    assert generator.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("name", ["RandomOuter", "SortedMatrix", "DynamicOuter", "DynamicOuter2Phases"])
def test_current_speed_after_a_batch_matches_scalar(name):
    n = 10 if "Outer" in name else 5
    ref_gens, gens = np.random.default_rng(8), np.random.default_rng(8)
    ref_pairs = [make_scenario("dyn.20", 6, rng=ref_gens) for _ in range(3)]
    pairs = [make_scenario("dyn.20", 6, rng=gens) for _ in range(3)]
    ref_streams = [np.random.default_rng(40 + r) for r in range(3)]
    streams = [np.random.default_rng(40 + r) for r in range(3)]
    refs = [
        simulate(make_strategy(name, n), pl, rng=g, speed_model=m)
        for (pl, m), g in zip(ref_pairs, ref_streams)
    ]
    gots = simulate_batch(
        lambda: make_strategy(name, n),
        [pl for pl, _ in pairs],
        rngs=streams,
        speed_models=[m for _, m in pairs],
    )
    for ref, got in zip(refs, gots):
        assert_same_result(ref, got)
    for (_, ref_model), (_, model) in zip(ref_pairs, pairs):
        assert [model.current_speed(w) for w in range(6)] == [ref_model.current_speed(w) for w in range(6)]
    for g, ref_g in zip(streams, ref_streams):
        assert g.bit_generator.state == ref_g.bit_generator.state


# -- the loop-free swap-remove replay ---------------------------------------------


def _replay_loop(universe, idx, items=None):
    """``SampleSet.draw``'s swap-remove, one step at a time."""
    items = list(range(universe)) if items is None else list(items)
    out = []
    size = universe
    for pick in idx.tolist():
        out.append(items[pick])
        size -= 1
        items[pick] = items[size]
    return out


@pytest.mark.parametrize("universe", list(range(1, 65)) + [10_000])
def test_replay_matches_the_loop(universe):
    rng = np.random.default_rng(universe)
    for _ in range(8 if universe <= 64 else 2):
        idx = rng.integers(np.arange(universe, 0, -1, dtype=np.int64))
        assert _replay_draws(universe, idx).tolist() == _replay_loop(universe, idx)
        items = rng.choice(7 * universe, size=universe, replace=False).tolist()
        frozen = list(items)
        assert _replay_draws(universe, idx, items).tolist() == _replay_loop(universe, idx, items)
        assert items == frozen


def test_replay_of_always_the_last_and_always_the_first():
    universe = 33
    last = np.arange(universe - 1, -1, -1, dtype=np.int64)
    first = np.zeros(universe, dtype=np.int64)
    assert _replay_draws(universe, last).tolist() == _replay_loop(universe, last)
    assert _replay_draws(universe, first).tolist() == _replay_loop(universe, first)


# -- the worker-major pop schedule ---------------------------------------------------


def _assert_schedules_equal(got, ref):
    for a, b in zip(got[:3], ref[:3]):
        assert np.array_equal(a, b)
    assert got[3] == ref[3]


@pytest.mark.parametrize("p", [1, 2, 3, 7, 16])
def test_pop_schedule_with_every_pop_tied(p):
    # Equal speeds: every worker pops at every k / speed at once, so each
    # pop is a tie that only heap FIFO order decides.
    d = np.full(p, 0.1)
    for total in (1, p, 3 * p + 1, 50):
        _assert_schedules_equal(_pop_schedule(d, total), _heap_schedule(d, total))
        _assert_schedules_equal(_pop_schedule(d, total, k0=1), _heap_schedule(d, total))


def test_pop_schedule_resumed_mid_run():
    rng = np.random.default_rng(4)
    for _ in range(40):
        p = int(rng.integers(1, 9))
        total = int(rng.integers(1, 300))
        d = np.full(p, 0.25) if rng.random() < 0.5 else 1.0 / rng.uniform(10, 100, size=p)
        # Pending times on a coarse grid, so resumed pops tie too.
        t0 = rng.integers(0, 4, size=p) * 0.25
        rank0 = rng.permutation(p)
        _assert_schedules_equal(
            _pop_schedule(d, total, t0=t0, rank0=rank0), _heap_schedule(d, total, t0, rank0)
        )
