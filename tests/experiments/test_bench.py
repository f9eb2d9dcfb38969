"""The repro-bench harness: suite shape, records, comparison, CLI."""

import json
from pathlib import Path

import pytest

from repro.experiments.bench import (
    SCHEMA,
    SUITES,
    _derive_metrics,
    _load_record,
    _quartiles,
    build_suite,
    compare_results,
    main,
    run_suite,
)
from repro.obs.profile import StageProfiler

ROOT = Path(__file__).resolve().parents[2]


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


def _timed(median, q1, q3):
    """A workload entry with the given median and quartiles."""
    return {
        "params": {},
        "repeats": 5,
        "seconds": {"median": median, "q1": q1, "q3": q3, "min": q1, "mean": median},
    }


def _ranged_record(serial, vectorized):
    """A record whose two-phase sweep entries are ``(median, q1, q3)`` triples."""
    entries = {
        "twophase_beta_sweep_serial": _timed(*serial),
        "twophase_beta_sweep_vectorized": _timed(*vectorized),
    }
    record = _tiny_record()
    record["workloads"] = entries
    record["derived"] = _derive_metrics(entries)
    return record


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
            assert 0 < seconds["min"] <= seconds["q1"] <= seconds["median"] <= seconds["q3"]
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


class TestDerivedRanges:
    def test_quartiles_interpolate_like_numpy(self):
        assert _quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)
        assert _quartiles([2.0]) == (2.0, 2.0)

    def test_speedup_range_from_quartiles(self):
        derived = _derive_metrics(
            {
                "replicate_sweep_serial": _timed(2.0, 1.5, 3.0),
                "replicate_sweep_vectorized": _timed(1.0, 0.5, 1.5),
            }
        )
        assert derived == {
            "replicate_sweep_vectorized_speedup": 2.0,
            "replicate_sweep_vectorized_speedup_low": 1.0,  # serial q1 / vectorized q3
            "replicate_sweep_vectorized_speedup_high": 6.0,  # serial q3 / vectorized q1
        }

    def test_curve_rows_carry_ranges(self):
        derived = _derive_metrics(
            {
                "scaling_reps04_serial": _timed(4.0, 3.0, 5.0),
                "scaling_reps04_vectorized": _timed(1.0, 0.5, 2.0),
            }
        )
        assert derived["scaling_curve"] == [
            {
                "reps": 4,
                "serial_s": 4.0,
                "vectorized_s": 1.0,
                "vectorized_speedup": 4.0,
                "vectorized_speedup_low": 1.5,
                "vectorized_speedup_high": 10.0,
            }
        ]

    def test_committed_records_still_load_and_compare_medians(self):
        paths = sorted(ROOT.glob("results/BENCH_*.json"))
        assert paths
        for path in paths:
            record = _load_record(str(path))
            derived = _derive_metrics(record["workloads"])
            # Records written before the quartiles were kept carry no range.
            ranged = all("q1" in entry["seconds"] for entry in record["workloads"].values())
            assert any(key.endswith(("_low", "_high")) for key in derived) == ranged
            for row in derived.get("scaling_curve", []) + derived.get("lockstep_curve", []):
                assert row["vectorized_speedup"] == row["serial_s"] / row["vectorized_s"]
                if ranged:
                    assert row["vectorized_speedup_low"] <= row["vectorized_speedup"] <= row["vectorized_speedup_high"]
            for key in ("replicate_sweep_vectorized_speedup", "twophase_beta_sweep_speedup"):
                if key in record.get("derived", {}):
                    assert derived[key] == pytest.approx(record["derived"][key])
            rows = compare_results(record, record)
            assert rows and all(row["status"] == "ok" and row["ratio"] == 1.0 for row in rows)

    def test_compare_says_whether_a_ratio_moved(self, tmp_path, capsys):
        base = _ranged_record((5.2, 5.0, 5.4), (1.0, 0.95, 1.05))
        noisy = _ranged_record((5.3, 5.0, 6.8), (1.0, 0.95, 1.05))
        faster = _ranged_record((5.2, 5.0, 5.4), (0.5, 0.48, 0.52))
        paths = {}
        for name, record in (("base", base), ("noisy", noisy), ("faster", faster)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(record))
        main(["compare", str(paths["base"]), str(paths["noisy"]), "--warn-only"])
        out = capsys.readouterr().out
        assert "two-phase beta-sweep speedup: old 5.20x [4.76–5.68x]" in out
        assert out.rstrip().endswith("(within spread)")
        main(["compare", str(paths["base"]), str(paths["faster"]), "--warn-only"])
        assert capsys.readouterr().out.rstrip().endswith("(moved)")


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

    def test_overlapping_quartiles_read_within_spread(self):
        old, new, faster = _tiny_record(), _tiny_record(), _tiny_record()
        old["workloads"] = {"a": _timed(1.0, 0.6, 2.0), "b": _timed(1.0, 0.95, 1.05)}
        new["workloads"] = {"a": _timed(1.9, 1.5, 2.4), "b": _timed(1.3, 1.25, 1.35)}
        rows = {r["name"]: r for r in compare_results(old, new)}
        assert rows["a"]["status"] == "within spread"  # 1.9x, but the ranges meet
        assert rows["b"]["status"] == "regression"  # 1.3x with disjoint ranges
        faster["workloads"] = {"a": _timed(0.5, 0.4, 0.7), "b": _timed(0.7, 0.65, 0.75)}
        rows = {r["name"]: r for r in compare_results(old, faster)}
        assert rows["a"]["status"] == "within spread"
        assert rows["b"]["status"] == "improved"
        # Without quartiles on either side the fixed threshold decides alone.
        old["workloads"]["a"] = {"params": {}, "repeats": 1, "seconds": {"median": 1.0}}
        assert compare_results(old, new)[0]["status"] == "regression"


class TestRoundRobin:
    def test_repeats_run_every_workload_once_per_round(self, monkeypatch):
        import repro.experiments.bench as bench_module

        order = []

        def workload(name):
            return bench_module.Workload(name, {}, lambda seed, prof: order.append(name))

        monkeypatch.setattr(bench_module, "build_suite", lambda suite: [workload("a"), workload("b")])
        record = run_suite("quick", repeats=3)
        assert order == ["a", "b"] * 3
        assert {name: entry["repeats"] for name, entry in record["workloads"].items()} == {"a": 3, "b": 3}


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

    def test_compare_exit_codes_follow_the_spread(self, tmp_path, capsys):
        paths = []
        for median, q1, q3 in ((1.0, 0.6, 2.0), (1.9, 1.5, 2.4), (1.0, 0.95, 1.05), (1.3, 1.25, 1.35)):
            record = _tiny_record()
            record["workloads"] = {"a": _timed(median, q1, q3)}
            paths.append(tmp_path / f"{len(paths)}.json")
            paths[-1].write_text(json.dumps(record))
        # Overlapping ranges at a 1.9x median ratio: no regression.
        assert main(["compare", str(paths[0]), str(paths[1])]) == 0
        assert "within spread" in capsys.readouterr().out
        # Disjoint ranges at 1.3x: a regression.
        assert main(["compare", str(paths[2]), str(paths[3])]) == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_rejects_non_bench_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main(["compare", str(bad), str(bad)])
