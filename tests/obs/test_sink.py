"""RecordingSink semantics and its integration with both engines."""

import pytest

from repro.core.strategies import OuterDynamic, OuterTwoPhase
from repro.core.strategies.registry import make_strategy
from repro.faults import FaultSchedule, WorkerCrash
from repro.obs import ALL_PHASES, ALL_WORKERS, MetricsSink, NullSink, RecordingSink
from repro.platform import Platform, uniform_speeds
from repro.simulator import simulate


@pytest.fixture
def platform():
    return Platform(uniform_speeds(4, 10, 100, rng=11))


class TestBaseSink:
    def test_hooks_are_noops(self):
        sink = MetricsSink()
        sink.on_run_start("S", "outer", 4, 2, [0.5, 0.5])
        sink.on_assignment(0.0, 0, 1, 1, 0.1, 1)
        sink.on_fault(0.0, "crash", 0, 1, 1)
        sink.on_run_end(1.0, 1, 1, 1)
        assert sink.snapshot() == {}
        sink.absorb_snapshot({"anything": 1})

    def test_null_sink_accepted_by_engine(self, platform):
        base = simulate(OuterDynamic(10), platform, rng=5)
        nulled = simulate(OuterDynamic(10), platform, rng=5, sink=NullSink())
        assert nulled.total_blocks == base.total_blocks
        assert nulled.makespan == base.makespan


class TestRecordingSinkContract:
    def test_event_before_run_start_rejected(self):
        sink = RecordingSink()
        with pytest.raises(RuntimeError, match="before on_run_start"):
            sink.on_assignment(0.0, 0, 1, 1, 0.1, 1)
        with pytest.raises(RuntimeError, match="before on_run_start"):
            sink.on_fault(0.0, "crash", 0, 0, 0)
        with pytest.raises(RuntimeError, match="before on_run_start"):
            sink.on_run_end(1.0, 1, 1, 1)

    def test_run_end_closes_the_run(self, platform):
        sink = RecordingSink()
        simulate(OuterDynamic(8), platform, rng=1, sink=sink)
        with pytest.raises(RuntimeError):
            sink.on_assignment(0.0, 0, 1, 1, 0.1, 1)

    def test_events_disabled_by_default(self, platform):
        sink = RecordingSink()
        simulate(OuterDynamic(8), platform, rng=1, sink=sink)
        assert sink.events is None
        assert not sink.metrics.is_empty()


class TestEngineIntegration:
    def test_counters_match_trace_aggregates(self, platform):
        sink = RecordingSink()
        result = simulate(OuterDynamic(16), platform, rng=3, sink=sink, collect_trace=True)
        trace = result.trace
        m = sink.metrics
        assert m.counter("blocks_shipped").total() == trace.total_blocks() == result.total_blocks
        assert m.counter("tasks_allocated").total() == trace.total_tasks()
        assert m.counter("assignments").total() == len(trace) == result.n_assignments
        for worker in range(platform.p):
            expected = sum(r.blocks for r in trace.for_worker(worker))
            got = sum(
                v for (s, w, _ph), v in m.counter("blocks_shipped").items() if w == worker
            )
            assert got == expected == result.per_worker_blocks[worker]

    def test_makespan_and_idle_gauges(self, platform):
        sink = RecordingSink()
        result = simulate(OuterDynamic(16), platform, rng=3, sink=sink, collect_trace=True)
        key = ("DynamicOuter", ALL_WORKERS, ALL_PHASES)
        assert sink.metrics.gauge("makespan").get(key) == result.makespan
        for worker in range(platform.p):
            busy = sum(r.duration for r in result.trace.for_worker(worker))
            gap = sink.metrics.gauge("idle_gap").get(("DynamicOuter", worker, ALL_PHASES))
            assert gap == pytest.approx(max(0.0, result.makespan - busy))

    def test_phase2_gauge_set_for_two_phase_strategy(self, platform):
        sink = RecordingSink()
        result = simulate(
            OuterTwoPhase(20, beta=2.0), platform, rng=3, sink=sink, collect_trace=True
        )
        first_p2 = min(r.time for r in result.trace if r.phase == 2)
        key = ("DynamicOuter2Phases", ALL_WORKERS, 2)
        assert sink.metrics.gauge("phase2_start_time").get(key) == first_p2

    def test_phase2_gauge_absent_for_single_phase(self, platform):
        sink = RecordingSink()
        simulate(OuterDynamic(16), platform, rng=3, sink=sink)
        assert len(sink.metrics.gauge("phase2_start_time")) == 0

    def test_histogram_covers_every_assignment(self, platform):
        sink = RecordingSink()
        result = simulate(OuterDynamic(16), platform, rng=3, sink=sink, collect_trace=True)
        hist = sink.metrics.histogram("assignment_tasks")
        total_count = sum(count for _k, (_c, count, _s) in hist.items())
        total_sum = sum(s for _k, (_c, _count, s) in hist.items())
        assert total_count == result.n_assignments
        assert total_sum == result.trace.total_tasks()

    def test_zero_task_assignments_counted_separately(self, platform):
        sink = RecordingSink()
        result = simulate(OuterDynamic(16), platform, rng=3, sink=sink, collect_trace=True)
        zero = sum(1 for r in result.trace if r.tasks == 0)
        nonzero_assignments = sum(1 for r in result.trace if r.tasks > 0)
        assert sink.metrics.counter("zero_task_assignments").total() == zero
        # tasks_allocated only has keys where tasks were actually allocated
        assert sink.metrics.counter("assignments").total() == zero + nonzero_assignments

    def test_run_metadata_recorded(self, platform):
        sink = RecordingSink()
        result = simulate(OuterDynamic(12), platform, rng=3, sink=sink)
        assert len(sink.runs) == 1
        run = sink.runs[0]
        assert run["strategy"] == "DynamicOuter"
        assert run["kernel"] == "outer"
        assert run["n"] == 12
        assert run["p"] == platform.p
        assert run["relative_speeds"] == pytest.approx(list(platform.relative_speeds))
        assert run["makespan"] == result.makespan
        assert run["total_blocks"] == result.total_blocks
        assert run["n_assignments"] == result.n_assignments


class TestEventStream:
    def test_stream_structure(self, platform):
        sink = RecordingSink(events=True)
        result = simulate(OuterDynamic(12), platform, rng=3, sink=sink)
        events = sink.events
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        assignments = [e for e in events if e["event"] == "assignment"]
        assert len(assignments) == result.n_assignments
        assert [e["i"] for e in events] == list(range(len(events)))

    def test_phase_transition_emitted_once(self, platform):
        sink = RecordingSink(events=True)
        simulate(OuterTwoPhase(20, beta=2.0), platform, rng=3, sink=sink)
        transitions = [e for e in sink.events if e["event"] == "phase_transition"]
        assert len(transitions) == 1
        assert transitions[0]["phase"] == 2

    def test_run_end_totals_match_result(self, platform):
        sink = RecordingSink(events=True)
        result = simulate(OuterDynamic(12), platform, rng=3, sink=sink)
        end = sink.events[-1]
        assert end["blocks"] == result.total_blocks
        assert end["t"] == result.makespan


class TestFaultyEngineIntegration:
    def test_fault_counters_match_trace(self, platform):
        schedule = FaultSchedule(crashes=(WorkerCrash(0, 0.05, 0.5),))
        sink = RecordingSink(events=True)
        result = simulate(
            make_strategy("DynamicOuter", 16, collect_ids=True),
            platform,
            schedule=schedule,
            rng=3,
            sink=sink,
            collect_trace=True,
        )
        m = sink.metrics
        assert m.counter("fault_crash").total() == result.faults.n_crashes == 1
        assert m.counter("fault_restart").total() == result.faults.n_restarts
        for kind in ("crash", "restart"):
            assert m.counter(f"fault_{kind}").total() == len(
                result.trace.faults_of_kind(kind)
            )
        fault_events = [e for e in sink.events if e["event"] == "fault"]
        assert len(fault_events) == len(result.trace.faults)

    def test_empty_schedule_matches_fault_free_metrics(self, platform):
        base_sink, faulty_sink = RecordingSink(), RecordingSink()
        simulate(OuterDynamic(12), platform, rng=3, sink=base_sink)
        simulate(
            OuterDynamic(12), platform, schedule=FaultSchedule(), rng=3, sink=faulty_sink
        )
        assert base_sink.metrics == faulty_sink.metrics


class TestSnapshots:
    def test_absorb_equals_direct_recording(self, platform):
        direct = RecordingSink()
        simulate(OuterDynamic(10), platform, rng=1, sink=direct)
        simulate(OuterDynamic(12), platform, rng=2, sink=direct)

        combined = RecordingSink()
        for n, rng in ((10, 1), (12, 2)):
            rep = RecordingSink()
            simulate(OuterDynamic(n), platform, rng=rng, sink=rep)
            combined.absorb_snapshot(rep.snapshot())

        assert combined.metrics == direct.metrics
        assert combined.runs == direct.runs

    def test_snapshot_is_plain_data(self, platform):
        import json
        import pickle

        sink = RecordingSink()
        simulate(OuterDynamic(10), platform, rng=1, sink=sink)
        snap = sink.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        json.dumps(snap)  # JSON-ready too

    def test_events_not_absorbed(self, platform):
        rep = RecordingSink(events=True)
        simulate(OuterDynamic(10), platform, rng=1, sink=rep)
        target = RecordingSink(events=True)
        target.absorb_snapshot(rep.snapshot())
        assert target.events == []
        assert not target.metrics.is_empty()
