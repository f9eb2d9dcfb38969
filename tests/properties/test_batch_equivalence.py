"""Property-based batch/scalar equivalence (hypothesis).

For random (strategy, n, p, seed) cells, the vectorized engine's
per-replicate traces must fingerprint-match the scalar oracle exactly:
same event sequence (time, worker, blocks, tasks, duration), same
totals, same RNG stream consumption.  This is the batch engine's whole
contract, so it gets the adversarial-input treatment on top of the
pinned cases in ``tests/simulator/test_batch.py``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies.registry import make_strategy
from repro.platform import Platform, uniform_speeds
from repro.platform.speeds import make_scenario
from repro.simulator import simulate, simulate_batch, simulate_sweep
from repro.utils.rng import spawn_rngs

VECTORIZED_OUTER = ["RandomOuter", "SortedOuter", "DynamicOuter", "MapReduceOuter"]
VECTORIZED_MATRIX = ["RandomMatrix", "SortedMatrix", "DynamicMatrix", "MapReduceMatrix"]
TWO_PHASE = ["DynamicOuter2Phases", "DynamicMatrix2Phases"]

COMMON = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def batch_case(draw):
    kernel = draw(st.booleans())
    if kernel:
        name = draw(st.sampled_from(VECTORIZED_MATRIX))
        n = draw(st.integers(1, 5))
    else:
        name = draw(st.sampled_from(VECTORIZED_OUTER))
        n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 12))
    low = draw(st.floats(1.0, 50.0))
    high = draw(st.floats(50.0, 100.0))
    platform_seed = draw(st.integers(0, 2**31))
    seed = draw(st.integers(0, 2**31))
    return name, n, p, low, high, platform_seed, seed


def trace_fingerprint(result):
    return (
        result.total_blocks,
        result.n_assignments,
        result.makespan,
        result.per_worker_blocks.tolist(),
        result.per_worker_tasks.tolist(),
        [
            (r.time, r.worker, r.blocks, r.tasks, r.duration, r.phase)
            for r in result.trace.records
        ],
    )


@given(batch_case())
@settings(**COMMON)
def test_batch_traces_fingerprint_match_scalar(case):
    name, n, p, low, high, platform_seed, seed = case
    platform = Platform(uniform_speeds(p, low, high, rng=platform_seed))
    reps = 2
    scalar_gens = spawn_rngs(seed, reps)
    refs = [
        simulate(make_strategy(name, n), platform, rng=g, collect_trace=True)
        for g in scalar_gens
    ]
    batch_gens = spawn_rngs(seed, reps)
    gots = simulate_batch(
        lambda: make_strategy(name, n),
        [platform] * reps,
        rngs=batch_gens,
        collect_trace=True,
    )
    for ref, got in zip(refs, gots):
        assert trace_fingerprint(ref) == trace_fingerprint(got)
    for bg, sg in zip(batch_gens, scalar_gens):
        assert bg.bit_generator.state == sg.bit_generator.state


@st.composite
def two_phase_case(draw):
    name = draw(st.sampled_from(TWO_PHASE))
    n = draw(st.integers(1, 5)) if "Matrix" in name else draw(st.integers(1, 10))
    p = draw(st.integers(1, 10))
    # One of: auto-resolved beta (possibly agnostic), an explicit beta
    # grid point, a phase-1 fraction, or a raw task threshold.
    mode = draw(st.sampled_from(["auto", "beta", "fraction", "threshold"]))
    kwargs = {}
    if mode == "auto":
        kwargs["agnostic"] = draw(st.booleans())
    elif mode == "beta":
        kwargs["beta"] = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
    elif mode == "fraction":
        kwargs["phase1_fraction"] = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    else:
        kwargs["threshold_tasks"] = draw(st.integers(0, 2 * n**3))
    platform_seed = draw(st.integers(0, 2**31))
    seed = draw(st.integers(0, 2**31))
    return name, n, p, kwargs, platform_seed, seed


@given(two_phase_case())
@settings(**COMMON)
def test_two_phase_traces_fingerprint_match_scalar(case):
    name, n, p, kwargs, platform_seed, seed = case
    platform = Platform(uniform_speeds(p, 10.0, 100.0, rng=platform_seed))
    reps = 2
    scalar_gens = spawn_rngs(seed, reps)
    refs = [
        simulate(make_strategy(name, n, **kwargs), platform, rng=g, collect_trace=True)
        for g in scalar_gens
    ]
    batch_gens = spawn_rngs(seed, reps)
    gots = simulate_batch(
        lambda: make_strategy(name, n, **kwargs),
        [platform] * reps,
        rngs=batch_gens,
        collect_trace=True,
    )
    for ref, got in zip(refs, gots):
        assert trace_fingerprint(ref) == trace_fingerprint(got)
    for bg, sg in zip(batch_gens, scalar_gens):
        assert bg.bit_generator.state == sg.bit_generator.state


@st.composite
def dynamic_speed_case(draw):
    kernel = draw(st.booleans())
    if kernel:
        name = draw(st.sampled_from(VECTORIZED_MATRIX + ["DynamicMatrix2Phases"]))
        n = draw(st.integers(1, 4))
    else:
        name = draw(st.sampled_from(VECTORIZED_OUTER + ["DynamicOuter2Phases"]))
        n = draw(st.integers(1, 10))
    p = draw(st.integers(1, 8))
    scenario = draw(st.sampled_from(["dyn.5", "dyn.20"]))
    seed = draw(st.integers(0, 2**31))
    return name, n, p, scenario, seed


@given(dynamic_speed_case())
@settings(**COMMON)
def test_dynamic_speed_traces_fingerprint_match_scalar(case):
    # dyn.* models draw per-block speed noise from the replicate stream;
    # the kernels replay model.duration per event, so the fingerprints
    # (and the model's end-of-run speed state) must stay bit-identical.
    name, n, p, scenario, seed = case
    reps = 2
    scalar_gens = spawn_rngs(seed, reps)
    refs, ref_models = [], []
    for g in scalar_gens:
        platform, model = make_scenario(scenario, p, rng=g)
        ref_models.append(model)
        refs.append(
            simulate(
                make_strategy(name, n), platform, rng=g, speed_model=model, collect_trace=True
            )
        )
    batch_gens = spawn_rngs(seed, reps)
    platforms, models = [], []
    for g in batch_gens:
        platform, model = make_scenario(scenario, p, rng=g)
        platforms.append(platform)
        models.append(model)
    gots = simulate_batch(
        lambda: make_strategy(name, n),
        platforms,
        rngs=batch_gens,
        speed_models=models,
        collect_trace=True,
    )
    for ref, got in zip(refs, gots):
        assert trace_fingerprint(ref) == trace_fingerprint(got)
    for ref_model, got_model in zip(ref_models, models):
        assert np.array_equal(ref_model._speeds, got_model._speeds)
    for bg, sg in zip(batch_gens, scalar_gens):
        assert bg.bit_generator.state == sg.bit_generator.state


@st.composite
def sweep_case(draw):
    kernel = draw(st.sampled_from(["Outer", "Matrix"]))
    n = draw(st.integers(1, 5)) if kernel == "Matrix" else draw(st.integers(1, 10))
    total = n**3 if kernel == "Matrix" else n * n
    p = draw(st.integers(1, 10))
    # A random member set: None is the Dynamic* member, a name one of the
    # task-by-task strategies, {} auto beta; duplicates, thresholds past
    # the task count and unreachable ones all come up.
    member = st.one_of(
        st.none(),
        st.sampled_from(["Random", "Sorted", "MapReduce"]),
        st.fixed_dictionaries({}, optional={"agnostic": st.booleans()}),
        st.fixed_dictionaries({"beta": st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 9.0])}),
        st.fixed_dictionaries({"phase1_fraction": st.sampled_from([0.0, 0.3, 0.7, 1.0])}),
        st.fixed_dictionaries({"threshold_tasks": st.integers(0, 2 * total)}),
    )
    members = draw(st.lists(member, min_size=1, max_size=6))
    platform_seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**31))
    return kernel, n, p, members, platform_seeds, seed


@given(sweep_case())
@settings(**COMMON)
def test_sweep_members_match_scalar(case):
    # One shared phase-1 lockstep, forked at every member's fork count,
    # must give each member exactly its own scalar runs.
    kernel, n, p, members, platform_seeds, seed = case
    platforms = [Platform(uniform_speeds(p, 10.0, 100.0, rng=s)) for s in platform_seeds]
    reps = len(platforms)

    def factory(member):
        if member is None:
            return lambda: make_strategy(f"Dynamic{kernel}", n)
        if isinstance(member, str):
            return lambda: make_strategy(f"{member}{kernel}", n)
        return lambda: make_strategy(f"Dynamic{kernel}2Phases", n, **member)

    factories = [factory(member) for member in members]
    got = simulate_sweep(factories, platforms, rngs=spawn_rngs(seed, reps))
    for factory, results in zip(factories, got):
        refs = [
            simulate(factory(), platform, rng=g)
            for platform, g in zip(platforms, spawn_rngs(seed, reps))
        ]
        for ref, res in zip(refs, results):
            assert (
                ref.total_blocks,
                ref.n_assignments,
                ref.makespan,
                ref.per_worker_blocks.tolist(),
                ref.per_worker_tasks.tolist(),
            ) == (
                res.total_blocks,
                res.n_assignments,
                res.makespan,
                res.per_worker_blocks.tolist(),
                res.per_worker_tasks.tolist(),
            )
