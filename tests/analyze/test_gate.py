"""Tier-1 gate: src/repro passes its own static checker.

Any commit that routes a wall-clock read into the simulation core, mutates
the store outside its FileLock, makes a strategy hook impure, introduces
a global RNG call, an unvalidated constructor or an ``__all__`` drift
fails the test suite, not just an optional CI job.  The committed baseline
may only shrink — a baselined finding that stops firing must be deleted.
"""

from pathlib import Path

import pytest

from repro.analyze import AnalysisFinding, apply_baseline, load_baseline, run_analysis
from repro.lint import collect_modules

ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = ROOT / "src" / "repro"
BASELINE = ROOT / "tools" / "analyze_baseline.json"


@pytest.fixture(scope="module")
def current_findings():
    modules = collect_modules([SRC_REPRO])
    return run_analysis(modules, api_doc=str(ROOT / "docs" / "API.md"))


def test_source_tree_is_analysis_clean_modulo_baseline(current_findings):
    split = apply_baseline(current_findings, load_baseline(BASELINE))
    rendered = "\n".join(f.render() for f in split.fresh)
    assert not split.fresh, f"src/repro has new static-check findings:\n{rendered}"


def test_source_tree_is_lint_clean(current_findings):
    """R-* findings are never baselined, so the tree has none outright."""
    rule_findings = [f for f in current_findings if f.rule_id.startswith("R-")]
    rendered = "\n".join(f.render() for f in rule_findings)
    assert not rule_findings, f"src/repro has R-* findings:\n{rendered}"


def test_baseline_only_shrinks(current_findings):
    """Every baselined key must still fire — paid-off debt must be deleted."""
    split = apply_baseline(current_findings, load_baseline(BASELINE))
    assert not split.stale, (
        "stale baseline entries (the finding no longer fires — delete them "
        f"from {BASELINE}): {split.stale}"
    )


def test_baseline_carries_no_errors(current_findings):
    """Grandfathered debt may be warnings only; errors must be fixed."""
    split = apply_baseline(current_findings, load_baseline(BASELINE))
    assert all(f.severity == "warning" for f in split.known), [
        f.key for f in split.known if f.severity != "warning"
    ]


def test_every_finding_has_key_and_explainable_identity(current_findings):
    """A-* findings carry a baseline key; R-* findings are never baselined."""
    for f in current_findings:
        if f.rule_id.startswith("A-"):
            assert isinstance(f, AnalysisFinding)
            assert f.key.startswith(f.rule_id + ":")


def test_source_tree_scan_covers_the_whole_package():
    modules = collect_modules([SRC_REPRO])
    names = {m.name for m in modules}
    # Spot-check every layer the checks are scoped to.
    for expected in (
        "repro",
        "repro.simulator.engine",
        "repro.core.strategies.registry",
        "repro.taskpool.knowledge",
        "repro.core.analysis.ode",
        "repro.experiments.runner",
        "repro.execution.live",
        "repro.extensions.lu.scheduler",
        "repro.lint.framework",
        "repro.analyze.checks",
    ):
        assert expected in names, f"{expected} missing from the scan"
    assert len(modules) > 60
