"""repro.lint — AST rule framework and per-file invariant rules.

The paper's claims are statistical: they only reproduce when every
randomized path is seeded through one :class:`numpy.random.Generator` and
every simulation is deterministic given ``(config, seed)``.  This package
turns those conventions — previously enforced by docstring and review — into
machine-checked rules: the framework (parsing, ``noqa`` suppression,
findings, reporters) and the per-file R-* rules of
:mod:`repro.lint.rules`.  They run as part of the one static checker,
``repro-analyze check`` (:mod:`repro.analyze`), next to its
interprocedural A-* checks.

Programmatic use::

    from repro.analyze import run_analysis
    from repro.lint import collect_modules

    findings = run_analysis(collect_modules(["src/repro"]), select=["R-RNG"])
    assert not findings
"""

from repro.lint.framework import (
    Finding,
    LintError,
    ModuleInfo,
    Rule,
    Severity,
    collect_modules,
    run_lint,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintError",
    "ModuleInfo",
    "Rule",
    "Severity",
    "collect_modules",
    "render_json",
    "render_text",
    "run_lint",
]
