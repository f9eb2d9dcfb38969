"""Every analyzer check fires on its fixture tree — and only there."""

import pytest

from repro.analyze import run_analysis
from repro.lint import collect_modules

from tests.analyze.conftest import SRC_REPRO


def keys(findings):
    return {f.key for f in findings}


class TestDeterminismTaint:
    def test_sources_reachable_from_simulate_flagged(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_taint") if f.rule_id == "A-TAINT"]
        assert keys(findings) == {
            "A-TAINT:repro.simulator.engine._jitter:time.time",
            "A-TAINT:repro.simulator.engine._scan:os.listdir (unsorted)",
            "A-TAINT:repro.simulator.engine._scan:set-iteration",
        }
        assert all(f.severity == "error" for f in findings)

    def test_sorted_listdir_not_flagged(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_taint") if f.rule_id == "A-TAINT"]
        unsorted = [f for f in findings if "listdir" in f.key]
        assert len(unsorted) == 1  # the sorted(os.listdir(...)) twin is clean

    def test_cli_module_is_sanitized_boundary(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_taint") if f.rule_id == "A-TAINT"]
        assert not any(f.path.endswith("cli.py") for f in findings)

    def test_chain_runs_from_root_to_source(self, analyze_fixture):
        findings = [
            f
            for f in analyze_fixture("bad_taint")
            if f.key == "A-TAINT:repro.simulator.engine._jitter:time.time"
        ]
        (finding,) = findings
        assert "repro.simulator.engine.simulate" in finding.chain[0]
        assert finding.chain[-1].startswith("time.time at line")

    def test_wall_clock_flagged(self, analyze_fixture):
        # Wall clock and OS entropy in a repro.simulator function that no
        # entry point reaches: the function is a root of its own.
        findings = analyze_fixture("bad_det", select=["A-TAINT"])
        assert keys(findings) == {
            "A-TAINT:repro.simulator.clock.stamp:time.time",
            "A-TAINT:repro.simulator.clock.stamp:datetime.datetime.now",
            "A-TAINT:repro.simulator.clock.stamp:os.urandom",
        }
        assert all(f.chain[0].startswith("repro.simulator.clock.stamp ") for f in findings)

    def test_wall_clock_in_obs_and_experiments_flagged(self, analyze_fixture):
        # time.time + a from-imported perf_counter in repro.obs, 2x
        # time.monotonic in repro.experiments.
        findings = analyze_fixture("bad_obs_clock", select=["A-TAINT"])
        sources = sorted(f.key.rsplit(":", 1)[1] for f in findings)
        assert sources == ["time.monotonic", "time.monotonic", "time.perf_counter", "time.time"]
        assert all(f.severity == "error" for f in findings)

    def test_profiler_module_exempt(self, analyze_fixture):
        findings = analyze_fixture("bad_obs_clock", select=["A-TAINT"])
        assert not any(f.path.endswith("profile.py") for f in findings)

    def test_import_time_sources_flagged(self, analyze_fixture):
        # Module-level statements and class bodies run on import: each
        # module of the deterministic packages is a root of its own.
        findings = analyze_fixture("bad_import_time", select=["A-TAINT"])
        assert keys(findings) == {
            "A-TAINT:repro.simulator.epoch:<module>:time.time",
            "A-TAINT:repro.simulator.epoch:<module>:os.getpid",
            "A-TAINT:repro.simulator.epoch:<module>:datetime.datetime.now",
        }
        assert all(f.chain[0].startswith("repro.simulator.epoch:<module> ") for f in findings)

    def test_cli_modules_of_watched_packages_flagged(self, analyze_fixture):
        # CLI and __main__ modules inside the deterministic packages are
        # roots; the clock read routed through the profiler stays clean.
        findings = analyze_fixture("bad_cli_clock", select=["A-TAINT"])
        assert keys(findings) == {
            "A-TAINT:repro.experiments.cli.main:time.perf_counter",
            "A-TAINT:repro.obs.__main__:<module>:time.time",
        }

    def test_clock_read_in_enter_reached_through_with(self, analyze_fixture):
        # The managers live outside the deterministic packages: only the
        # ``with`` edges from the core into their hooks make them reachable.
        findings = analyze_fixture("bad_enter_clock", select=["A-TAINT"])
        assert keys(findings) == {
            "A-TAINT:repro.store.timer.Stopwatch.__enter__:time.perf_counter",
            "A-TAINT:repro.store.timer.Stopwatch.__exit__:time.perf_counter",
            "A-TAINT:repro.store.timer.Deadline.__aenter__:time.monotonic",
        }
        chains = {f.key: f.chain for f in findings}
        enter = chains["A-TAINT:repro.store.timer.Stopwatch.__enter__:time.perf_counter"]
        assert enter[0].startswith("repro.simulator.engine.simulate ")

    def test_real_tree_is_taint_clean(self):
        modules = collect_modules([SRC_REPRO])
        findings = run_analysis(modules, select=["A-TAINT"])
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, f"src/repro has taint findings:\n{rendered}"


class TestLockDiscipline:
    def test_unlocked_mutation_flagged(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_lock") if f.rule_id == "A-LOCK"]
        assert keys(findings) == {"A-LOCK:repro.store.cache.Store.evict:os.unlink"}

    def test_locked_and_always_locked_mutations_clean(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_lock") if f.rule_id == "A-LOCK"]
        flagged = keys(findings)
        assert not any("put" in k for k in flagged)  # lexically locked
        assert not any("_commit" in k for k in flagged)  # locked on every path

    def test_slow_call_under_lock_flagged(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_lock") if f.rule_id == "A-LOCK-HELD"]
        assert keys(findings) == {
            "A-LOCK-HELD:repro.store.cache.Store.rebuild:subprocess.run",
            "A-LOCK-HELD:repro.store.cache.Store.rebuild:subprocess.check_output",
            "A-LOCK-HELD:repro.store.cache.Store.refill:repro.simulator.batch.simulate_batch",
        }

    def test_transitive_slow_call_has_chain(self, analyze_fixture):
        findings = [
            f
            for f in analyze_fixture("bad_lock")
            if f.key == "A-LOCK-HELD:repro.store.cache.Store.rebuild:subprocess.check_output"
        ]
        (finding,) = findings
        assert "holds the lock" in finding.chain[0]
        assert any("_regen" in step for step in finding.chain)

    def test_real_tree_is_lock_clean(self):
        modules = collect_modules([SRC_REPRO])
        findings = run_analysis(modules, select=["A-LOCK", "A-LOCK-HELD"])
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, f"src/repro has lock findings:\n{rendered}"


class TestStrategyPurity:
    def test_impure_hooks_flagged(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_pure") if f.rule_id == "A-PURE"]
        assert keys(findings) == {
            "A-PURE:repro.core.strategies.greedy.Greedy.assign:module-global mutation of HITS.append()",
            "A-PURE:repro.core.strategies.greedy.Greedy.assign:I/O call print",
            "A-PURE:repro.core.strategies.greedy.Greedy._pick:class-attribute write .counter",
            "A-PURE:repro.core.strategies.greedy.Greedy.release_tasks:global HITS",
        }

    def test_self_mutation_stays_legal(self, analyze_fixture):
        findings = [f for f in analyze_fixture("bad_pure") if f.rule_id == "A-PURE"]
        assert not any("forget_worker" in f.key for f in findings)
        assert not any("reset" in f.key for f in findings)

    def test_transitive_impurity_chains_through_helper(self, analyze_fixture):
        findings = [
            f
            for f in analyze_fixture("bad_pure")
            if f.key
            == "A-PURE:repro.core.strategies.greedy.Greedy._pick:class-attribute write .counter"
        ]
        (finding,) = findings
        assert "Greedy.assign" in finding.chain[0]  # hook root
        assert "_pick" in finding.chain[-2]

    def test_real_tree_is_purity_clean(self):
        modules = collect_modules([SRC_REPRO])
        findings = run_analysis(modules, select=["A-PURE"])
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, f"src/repro has purity findings:\n{rendered}"


class TestNoqaSuppression:
    def test_per_line_noqa_suppresses_analysis_finding(self, tmp_path, analyze_fixture):
        root = tmp_path / "repro" / "store"
        root.mkdir(parents=True)
        (root / "cache.py").write_text(
            '"""Fixture."""\n'
            "import os\n\n"
            "__all__ = []\n\n\n"
            "def wipe(path):\n"
            '    """Fixture stub."""\n'
            "    os.unlink(path)  # repro: noqa[A-LOCK]\n"
        )
        findings = run_analysis(collect_modules([tmp_path]))
        assert not any(f.rule_id == "A-LOCK" for f in findings)


class TestSelection:
    def test_unknown_check_id_raises(self, analyze_fixture):
        with pytest.raises(ValueError, match="unknown check id"):
            analyze_fixture("bad_taint", select=["A-BOGUS"])

    def test_ignore_drops_check(self, analyze_fixture):
        findings = analyze_fixture("bad_taint", ignore=["A-TAINT"])
        assert not any(f.rule_id == "A-TAINT" for f in findings)
