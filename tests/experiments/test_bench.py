"""The repro-bench harness: suite shape, records, comparison, CLI."""

import json

import pytest

from repro.experiments.bench import (
    SCHEMA,
    SUITES,
    build_suite,
    compare_results,
    main,
    run_suite,
)
from repro.obs.profile import StageProfiler


def _tiny_record(**medians):
    """A minimal schema-valid record with the given workload medians."""
    return {
        "schema": SCHEMA,
        "suite": "quick",
        "seed": 0,
        "repeats": 1,
        "machine": {"platform": "test", "python": "3", "numpy": "1", "cpu_count": 1},
        "workloads": {
            name: {
                "params": {},
                "repeats": 1,
                "seconds": {"median": med, "min": med, "mean": med},
            }
            for name, med in medians.items()
        },
    }


class TestSuite:
    def test_suites_share_workload_names(self):
        names = {suite: [wl.name for wl in build_suite(suite)] for suite in SUITES}
        assert names["default"] == names["quick"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            build_suite("huge")

    def test_workloads_are_runnable(self):
        # Every quick workload must complete on a fixed seed.
        for wl in build_suite("quick"):
            assert wl.fn(0, StageProfiler(enabled=False)) is not None

    def test_workloads_profile_stages(self):
        # With an enabled profiler every workload reports at least one stage.
        for wl in build_suite("quick"):
            prof = StageProfiler()
            assert wl.fn(0, prof) is not None
            assert len(prof) >= 1
            assert prof.total() > 0


class TestRunSuite:
    def test_record_shape_and_derived_speedup(self):
        record = run_suite("quick", seed=0, repeats=1)
        assert record["schema"] == SCHEMA
        assert record["suite"] == "quick"
        assert set(record["machine"]) == {"platform", "python", "numpy", "cpu_count"}
        for entry in record["workloads"].values():
            seconds = entry["seconds"]
            assert 0 < seconds["min"] <= seconds["median"]
        assert "replicate_sweep_vectorized_speedup" in record["derived"]
        assert not any("parallel" in name for name in record["workloads"])

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_suite("quick", repeats=0)

    def test_profile_records_stage_seconds(self):
        record = run_suite("quick", seed=0, repeats=1, profile=True)
        assert record["profile"] is True
        for entry in record["workloads"].values():
            stages = entry["profile"]
            assert stages  # at least one stage per workload
            assert all(seconds >= 0 for seconds in stages.values())
        engine = record["workloads"]["engine_outer_dynamic"]["profile"]
        assert set(engine) == {"setup", "simulate"}

    def test_no_profile_leaves_entries_clean(self):
        record = run_suite("quick", seed=0, repeats=1)
        assert record["profile"] is False
        assert all("profile" not in e for e in record["workloads"].values())


class TestCompare:
    def test_regression_detected(self):
        old = _tiny_record(a=1.0, b=1.0)
        new = _tiny_record(a=1.5, b=1.0)
        rows = {r["name"]: r for r in compare_results(old, new, threshold=0.2)}
        assert rows["a"]["status"] == "regression"
        assert rows["b"]["status"] == "ok"

    def test_improvement_and_membership_changes(self):
        old = _tiny_record(a=1.0, gone=1.0)
        new = _tiny_record(a=0.5, fresh=1.0)
        rows = {r["name"]: r for r in compare_results(old, new)}
        assert rows["a"]["status"] == "improved"
        assert rows["fresh"]["status"] == "new"
        assert rows["gone"]["status"] == "removed"

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            compare_results(_tiny_record(), _tiny_record(), threshold=0.0)


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "replicate_sweep_serial" in out

    def test_run_writes_record(self, tmp_path):
        path = tmp_path / "bench.json"
        assert main(["run", "--quick", "--repeats", "1", "--json", str(path)]) == 0
        record = json.loads(path.read_text())
        assert record["schema"] == SCHEMA

    def test_compare_exit_codes(self, tmp_path, capsys):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_tiny_record(a=1.0)))
        new_path.write_text(json.dumps(_tiny_record(a=2.0)))
        assert main(["compare", str(old_path), str(new_path)]) == 1
        assert main(["compare", str(old_path), str(new_path), "--warn-only"]) == 0
        assert main(["compare", str(old_path), str(old_path)]) == 0
        capsys.readouterr()

    def test_compare_rejects_non_bench_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main(["compare", str(bad), str(bad)])
