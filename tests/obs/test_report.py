"""Run-report derivation: lower-bound normalization and per-strategy sections."""

import pytest

from repro.core.analysis.lower_bounds import lower_bound
from repro.core.strategies import OuterDynamic, OuterTwoPhase
from repro.faults import FaultSchedule, WorkerCrash
from repro.core.strategies.registry import make_strategy
from repro.obs import RecordingSink, build_report, render_report, summary_from_sink
from repro.platform import Platform, uniform_speeds
from repro.simulator import simulate


@pytest.fixture
def platform():
    return Platform(uniform_speeds(4, 10, 100, rng=11))


@pytest.fixture
def summary(platform):
    sink = RecordingSink()
    simulate(OuterDynamic(12), platform, rng=3, sink=sink)
    simulate(OuterTwoPhase(16, beta=2.0), platform, rng=4, sink=sink)
    return summary_from_sink(sink)


class TestBuildReport:
    def test_normalized_comm_uses_lower_bound(self, platform):
        sink = RecordingSink()
        result = simulate(OuterDynamic(12), platform, rng=3, sink=sink)
        report = build_report(summary_from_sink(sink))
        row = report["runs"][0]
        bound = lower_bound("outer", platform.relative_speeds, 12)
        assert row["lower_bound"] == pytest.approx(bound)
        assert row["normalized_comm"] == pytest.approx(result.total_blocks / bound)
        assert row["normalized_comm"] >= 1.0  # can never beat the bound

    def test_one_section_per_strategy(self, summary):
        report = build_report(summary)
        names = [s["strategy"] for s in report["strategies"]]
        assert names == ["DynamicOuter", "DynamicOuter2Phases"]
        assert names == sorted(names)

    def test_section_totals_match_run_metadata(self, summary):
        report = build_report(summary)
        by_name = {s["strategy"]: s for s in report["strategies"]}
        for run in summary["runs"]:
            section = by_name[run["strategy"]]
            assert section["total_blocks"] == run["total_blocks"]
            assert section["total_tasks"] == run["total_tasks"]
            assert section["assignments"] == run["n_assignments"]
            assert section["runs"] == 1
            assert section["last_makespan"] == run["makespan"]

    def test_phase_split_adds_up(self, summary):
        report = build_report(summary)
        by_name = {s["strategy"]: s for s in report["strategies"]}
        two_phase = by_name["DynamicOuter2Phases"]
        assert set(two_phase["phase_blocks"]) == {1, 2}
        assert sum(two_phase["phase_blocks"].values()) == two_phase["total_blocks"]
        assert sum(two_phase["phase_tasks"].values()) == two_phase["total_tasks"]
        assert "phase2_start_time" in two_phase
        single = by_name["DynamicOuter"]
        assert set(single["phase_blocks"]) == {1}
        assert "phase2_start_time" not in single

    def test_worker_rows_cover_all_workers(self, summary, platform):
        report = build_report(summary)
        for section in report["strategies"]:
            workers = [row["worker"] for row in section["workers"]]
            assert workers == list(range(platform.p))
            assert sum(row["blocks"] for row in section["workers"]) == section["total_blocks"]
            for row in section["workers"]:
                assert row["idle_gap"] >= 0.0

    def test_fault_summary(self, platform):
        sink = RecordingSink()
        simulate(
            make_strategy("DynamicOuter", 16, collect_ids=True),
            platform,
            schedule=FaultSchedule(crashes=(WorkerCrash(0, 0.05, 0.5),)),
            rng=3,
            sink=sink,
        )
        report = build_report(summary_from_sink(sink))
        faults = report["strategies"][0]["faults"]
        assert faults.get("crash") == 1
        assert "restart" in faults

    def test_empty_summary(self):
        report = build_report({"format": "repro.obs/1", "runs": [], "metrics": {}})
        assert report == {"runs": [], "strategies": [], "store": []}


class TestRenderReport:
    def test_contains_headline_numbers(self, summary):
        text = render_report(summary)
        assert text.startswith("repro.obs run report")
        assert "runs recorded: 2" in text
        assert "normalized comm=" in text
        assert "strategy DynamicOuter" in text
        assert "strategy DynamicOuter2Phases" in text
        assert "phase-2 switch at t=" in text
        assert "idle_gap" in text

    def test_fault_line_rendered(self, platform):
        sink = RecordingSink()
        simulate(
            make_strategy("DynamicOuter", 16, collect_ids=True),
            platform,
            schedule=FaultSchedule(crashes=(WorkerCrash(0, 0.05, 0.5),)),
            rng=3,
            sink=sink,
        )
        text = render_report(summary_from_sink(sink))
        assert "faults:" in text
        assert "crash=1" in text

    def test_empty_summary_renders(self):
        text = render_report({"format": "repro.obs/1", "runs": [], "metrics": {}})
        assert text.startswith("repro.obs run report")

    def test_deterministic(self, summary):
        assert render_report(summary) == render_report(summary)
