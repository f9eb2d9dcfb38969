"""Tests for trace/result JSON serialization."""

import numpy as np
import pytest

from repro.core.strategies import OuterTwoPhase
from repro.simulator import (
    load_result,
    result_from_json,
    result_to_json,
    save_result,
    simulate,
)


@pytest.fixture
def traced_result(paper_platform):
    return simulate(OuterTwoPhase(12, beta=3.0, collect_ids=True), paper_platform, rng=1, collect_trace=True)


class TestRoundTrip:
    def test_scalar_fields(self, traced_result):
        back = result_from_json(result_to_json(traced_result))
        assert back.total_blocks == traced_result.total_blocks
        assert back.makespan == traced_result.makespan
        assert back.n_assignments == traced_result.n_assignments
        assert back.strategy_name == traced_result.strategy_name

    def test_arrays(self, traced_result):
        back = result_from_json(result_to_json(traced_result))
        assert np.array_equal(back.per_worker_blocks, traced_result.per_worker_blocks)
        assert np.array_equal(back.per_worker_tasks, traced_result.per_worker_tasks)

    def test_trace_records(self, traced_result):
        back = result_from_json(result_to_json(traced_result))
        assert len(back.trace) == len(traced_result.trace)
        for a, b in zip(back.trace, traced_result.trace):
            assert a.time == b.time
            assert a.worker == b.worker
            assert a.blocks == b.blocks
            assert a.phase == b.phase
            assert np.array_equal(a.task_ids, b.task_ids)

    def test_task_ids_dtype(self, traced_result):
        back = result_from_json(result_to_json(traced_result))
        ids = back.trace.all_task_ids()
        assert ids.dtype == np.int64
        assert np.array_equal(np.sort(ids), np.sort(traced_result.trace.all_task_ids()))

    def test_no_trace(self, paper_platform):
        r = simulate(OuterTwoPhase(8), paper_platform, rng=0)
        back = result_from_json(result_to_json(r))
        assert back.trace is None

    def test_file_roundtrip(self, traced_result, tmp_path):
        path = save_result(traced_result, str(tmp_path / "run.json"))
        back = load_result(path)
        assert back.total_blocks == traced_result.total_blocks

    def test_rejects_foreign_json(self):
        with pytest.raises(ValueError):
            result_from_json('{"hello": 1}')


class TestFaultRoundTrip:
    @pytest.fixture
    def faulty_result(self, paper_platform):
        from repro.faults import FaultSchedule

        schedule = FaultSchedule.draw(
            paper_platform.p, 0.5, rng=2, crash_rate=8.0, mean_downtime=0.02, loss_prob=0.05
        )
        return simulate(
            OuterTwoPhase(12, beta=3.0, collect_ids=True),
            paper_platform,
            schedule=schedule,
            rng=1,
            collect_trace=True,
        )

    def test_fault_stats(self, faulty_result):
        assert faulty_result.faults is not None
        assert faulty_result.faults.any_faults  # the schedule must bite
        back = result_from_json(result_to_json(faulty_result))
        assert back.faults == faulty_result.faults

    def test_fault_events(self, faulty_result):
        assert faulty_result.trace.faults  # at least one fault record
        back = result_from_json(result_to_json(faulty_result))
        assert len(back.trace.faults) == len(faulty_result.trace.faults)
        for a, b in zip(back.trace.faults, faulty_result.trace.faults):
            assert a == b

    def test_faultless_payload_stays_empty(self, traced_result):
        back = result_from_json(result_to_json(traced_result))
        assert back.faults is None
        assert back.trace.faults == []
