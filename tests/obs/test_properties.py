"""Property tests: recorded metrics are exactly the Trace's aggregates.

Two contracts the observability layer stands on:

* for **every registered strategy** and any seed, the sink's counters equal
  the aggregates recomputed from the engine's own ``Trace`` — the metrics
  are a lossless view, not an approximation;
* attaching a sink to the replicate runner never changes the simulated
  values themselves.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies.registry import make_strategy, strategy_names
from repro.experiments import average_normalized_comm
from repro.experiments.parallel import StrategySpec, UniformPlatformSpec
from repro.obs import ALL_PHASES, ALL_WORKERS, RecordingSink
from repro.platform import Platform, uniform_speeds
from repro.simulator import simulate

COMMON = dict(deadline=None, max_examples=10, suppress_health_check=[HealthCheck.too_slow])


def _size_for(name: str) -> int:
    return 6 if "Matrix" in name else 12


@pytest.mark.parametrize("name", sorted(strategy_names()))
class TestCountersMatchTrace:
    @settings(**COMMON)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_counters_equal_trace_aggregates(self, name, seed):
        platform = Platform(uniform_speeds(4, 10, 100, rng=seed))
        sink = RecordingSink()
        result = simulate(
            make_strategy(name, _size_for(name)),
            platform,
            rng=seed + 1,
            sink=sink,
            collect_trace=True,
        )
        trace = result.trace
        m = sink.metrics

        assert m.counter("blocks_shipped").total() == trace.total_blocks()
        assert m.counter("tasks_allocated").total() == trace.total_tasks()
        assert m.counter("assignments").total() == len(trace)
        assert m.counter("runs").get((name, ALL_WORKERS, ALL_PHASES)) == 1

        # Per-phase splits match the trace exactly.
        for phase in (1, 2):
            blocks = sum(
                v
                for (s, w, ph), v in m.counter("blocks_shipped").items()
                if ph == phase
            )
            tasks = sum(
                v
                for (s, w, ph), v in m.counter("tasks_allocated").items()
                if ph == phase
            )
            assert blocks == trace.phase_blocks(phase)
            assert tasks == trace.phase_tasks(phase)

        # Per-worker splits match the result vectors exactly.
        for worker in range(platform.p):
            blocks = sum(
                v for (s, w, _ph), v in m.counter("blocks_shipped").items() if w == worker
            )
            tasks = sum(
                v for (s, w, _ph), v in m.counter("tasks_allocated").items() if w == worker
            )
            assert blocks == result.per_worker_blocks[worker]
            assert tasks == result.per_worker_tasks[worker]

        assert m.gauge("makespan").get((name, ALL_WORKERS, ALL_PHASES)) == result.makespan


class TestSinkIdentity:
    def test_sink_does_not_perturb_values(self):
        """Attaching a sink never changes the simulated values themselves."""
        bare = average_normalized_comm(
            StrategySpec("DynamicOuter", 12), UniformPlatformSpec(4), 12, 5, seed=3
        )
        sink = RecordingSink()
        observed = average_normalized_comm(
            StrategySpec("DynamicOuter", 12), UniformPlatformSpec(4), 12, 5, seed=3, sink=sink
        )
        assert bare == observed
        assert sink.metrics.counter("runs").total() == 5
        assert len(sink.runs) == 5
