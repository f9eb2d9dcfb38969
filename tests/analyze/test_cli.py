"""The ``repro-analyze`` CLI: subcommands, exit codes, formats."""

import json
from pathlib import Path

from repro.analyze.baseline import BASELINE_FORMAT
from repro.analyze.cli import main
from repro.lint.reporters import JSON_SCHEMA_VERSION
from repro.lint.rules import ALL_RULES

from tests.analyze.conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[2]
LINT_FIXTURES = ROOT / "tests" / "lint" / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_findings_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(FIXTURES / "bad_taint"), "--select", "A-TAINT"
        )
        assert code == 1
        assert "A-TAINT" in out
        assert "[A-TAINT:repro.simulator.engine._jitter:time.time]" in out

    def test_clean_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(FIXTURES / "bad_taint"), "--select", "A-LOCK"
        )
        assert code == 0
        assert "repro-analyze: clean" in out

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            str(FIXTURES / "bad_pure"),
            "--select",
            "A-PURE",
            "--format",
            "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["version"] == 1
        assert doc["counts"] == {"error": 4}
        keys = {f["key"] for f in doc["findings"]}
        assert "A-PURE:repro.core.strategies.greedy.Greedy.assign:I/O call print" in keys
        assert all("chain" in f for f in doc["findings"])

    def test_unknown_check_id_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", str(FIXTURES / "bad_taint"), "--select", "A-NOPE")
        assert code == 2
        assert "unknown check id" in err

    def test_unreadable_path_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "no/such/tree")
        assert code == 2
        assert "repro-analyze:" in err

    def test_list_checks(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--list-checks")
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "R-RNG", "R-RNG-PARAM", "R-FLOATEQ", "R-VALIDATE", "R-REGISTRY",
            "R-ALL-EXISTS", "R-ALL-EXPORT", "R-DOCSTRING", "R-EXCEPT", "R-SILENT",
            "A-TAINT", "A-LOCK", "A-LOCK-HELD", "A-PURE", "A-DRIFT", "A-DEAD",
        ]


class TestLintRules:
    """The per-file R-* rules run, select and report through ``check``."""

    def test_rule_findings_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(LINT_FIXTURES / "bad_except"))
        assert code == 1
        assert "R-EXCEPT" in out and "R-SILENT" in out

    def test_text_report_lines_are_grep_friendly(self, capsys):
        _, out, _ = run_cli(capsys, "check", str(LINT_FIXTURES / "bad_except"))
        lines = out.strip().splitlines()
        assert any(line.split(":")[1].isdigit() and "R-SILENT" in line for line in lines)
        assert lines[-1].startswith("repro-analyze:")

    def test_json_rule_findings_carry_no_key(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--format", "json", "--select", "R-SILENT",
            str(LINT_FIXTURES / "bad_except"),
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert doc["counts"] == {"error": 2}
        for finding in doc["findings"]:
            assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}

    def test_json_on_clean_tree(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--format", "json", str(ROOT / "src" / "repro" / "lint")
        )
        assert json.loads(out)["findings"] == []
        assert code == 0

    def test_select_limits_rules(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--select", "R-EXCEPT", str(LINT_FIXTURES / "bad_except")
        )
        assert code == 1
        assert "R-EXCEPT" in out
        assert "R-SILENT" not in out

    def test_ignore_drops_rules(self, capsys):
        # A-DEAD and A-DRIFT are ignored too: the fixture's exports have no
        # caller in its tree and no section in the default docs/API.md.
        code, _, _ = run_cli(
            capsys, "check", "--ignore", "R-EXCEPT", "--ignore", "R-SILENT",
            "--ignore", "A-DEAD", "--ignore", "A-DRIFT", str(LINT_FIXTURES / "bad_except"),
        )
        assert code == 0

    def test_unknown_rule_id_exits_two(self, capsys):
        for rule_id in ("R-NOPE", "R-DET", "R-OBS-CLOCK"):
            code, _, err = run_cli(
                capsys, "check", "--select", rule_id, str(LINT_FIXTURES / "bad_except")
            )
            assert code == 2
            assert "unknown check id" in err

    def test_bad_path_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--select", "R-SILENT", str(LINT_FIXTURES / "no_such_dir")
        )
        assert code == 2
        assert "repro-analyze:" in err

    def test_list_checks_names_every_rule(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--list-checks")
        assert code == 0
        listed = {line.split()[0] for line in out.splitlines()}
        assert {rule.id for rule in ALL_RULES} <= listed
        assert not {"R-DET", "R-OBS-CLOCK"} & listed


class TestBaselineFlow:
    def test_write_then_check_against_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, out, _ = run_cli(
            capsys,
            "check",
            str(FIXTURES / "bad_pure"),
            "--select",
            "A-PURE",
            "--write-baseline",
            str(baseline),
        )
        assert code == 0
        assert "wrote 4 key(s)" in out
        assert json.loads(baseline.read_text())["format"] == BASELINE_FORMAT

        code, out, _ = run_cli(
            capsys,
            "check",
            str(FIXTURES / "bad_pure"),
            "--select",
            "A-PURE",
            "--baseline",
            str(baseline),
        )
        assert code == 0
        assert "repro-analyze: clean" in out

    def test_rule_findings_are_never_baselined(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        tree = str(LINT_FIXTURES / "bad_except")
        code, out, _ = run_cli(
            capsys, "check", tree, "--select", "R-SILENT", "--write-baseline", str(baseline)
        )
        assert code == 0
        assert "wrote 0 key(s)" in out
        code, out, _ = run_cli(capsys, "check", tree, "--select", "R-SILENT", "--baseline", str(baseline))
        assert code == 1
        assert "R-SILENT" in out

    def test_source_tree_clean_against_committed_baseline(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--baseline", str(ROOT / "tools" / "analyze_baseline.json"),
            "--api-doc", str(ROOT / "docs" / "API.md"), str(ROOT / "src" / "repro"),
        )
        assert code == 0, out
        assert "repro-analyze: clean" in out

    def test_stale_baseline_entry_fails(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"format": BASELINE_FORMAT, "keys": ["A-PURE:repro.gone.f:print"]})
        )
        code, _, err = run_cli(
            capsys,
            "check",
            str(FIXTURES / "bad_pure"),
            "--select",
            "A-LOCK",
            "--baseline",
            str(baseline),
        )
        assert code == 1
        assert "stale baseline entry" in err

    def test_malformed_baseline_exit_two(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{broken")
        code, _, err = run_cli(
            capsys, "check", str(FIXTURES / "bad_pure"), "--baseline", str(baseline)
        )
        assert code == 2
        assert "not valid JSON" in err


class TestGraph:
    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "graph", str(FIXTURES / "bad_taint"))
        assert code == 0
        assert "modules:" in out
        assert "call edges:" in out

    def test_callers_and_callees(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "graph",
            str(FIXTURES / "bad_taint"),
            "--callers",
            "repro.simulator.engine._jitter",
        )
        assert code == 0
        assert "repro.simulator.engine.simulate" in out

        code, out, _ = run_cli(
            capsys,
            "graph",
            str(FIXTURES / "bad_taint"),
            "--callees",
            "repro.simulator.engine.simulate",
        )
        assert code == 0
        assert "repro.simulator.engine._jitter" in out

    def test_unknown_function_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "graph", str(FIXTURES / "bad_taint"), "--callers", "repro.nope.f"
        )
        assert code == 2
        assert "unknown function" in err


class TestExplain:
    def test_explain_prints_full_chain(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            "A-TAINT:repro.simulator.engine._jitter:time.time",
            str(FIXTURES / "bad_taint"),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "A-TAINT:repro.simulator.engine._jitter:time.time"
        assert any("call chain:" in line for line in lines)
        assert any("repro.simulator.engine.simulate" in line for line in lines)
        assert any("time.time at line" in line for line in lines)

    def test_unknown_key_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "explain", "A-TAINT:repro.nope:thing", str(FIXTURES / "bad_taint")
        )
        assert code == 2
        assert "no finding with key" in err
