"""repro.analyze — whole-program determinism & concurrency analyzer.

Where :mod:`repro.lint` checks one module at a time, this package builds a
*whole-program* view — symbol table, import graph and an approximate call
graph over ``src/repro`` — and runs interprocedural checks on it:

* **A-TAINT** — no wall-clock/entropy/unordered-iteration source reachable
  from the simulation engines or the fingerprint/exporter paths
  (:mod:`repro.analyze.taint`);
* **A-LOCK** / **A-LOCK-HELD** — every ``repro.store`` mutation dominated
  by FileLock acquisition, and no lock held across slow or forking calls
  (:mod:`repro.analyze.locks`);
* **A-PURE** — strategy hooks write no shared state and do no I/O
  (:mod:`repro.analyze.purity`);
* **A-DRIFT** / **A-DEAD** — ``docs/API.md`` matches ``__all__``, and
  exported functions are actually used (:mod:`repro.analyze.drift`).

CLI: ``repro-analyze check|graph|explain`` (``python -m repro.analyze``).
Known debt lives in a committed baseline that may only shrink; see
:mod:`repro.analyze.baseline` and ``docs/ANALYSIS.md``.

Programmatic use::

    from repro.analyze import run_analysis
    from repro.lint import collect_modules

    findings = run_analysis(collect_modules(["src/repro"]))
    assert not findings
"""

from repro.analyze.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analyze.callgraph import CallGraph, CallSite, build_call_graph
from repro.analyze.checks import (
    ALL_CHECKS,
    AnalysisModel,
    AnalyzeCheck,
    build_model,
    default_checks,
    run_analysis,
    select_checks,
)
from repro.analyze.findings import AnalysisFinding
from repro.analyze.project import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    Project,
    build_project,
)

__all__ = [
    "ALL_CHECKS",
    "AnalysisFinding",
    "AnalysisModel",
    "AnalyzeCheck",
    "BaselineError",
    "CallGraph",
    "CallSite",
    "ClassSymbol",
    "FunctionSymbol",
    "ModuleSymbols",
    "Project",
    "apply_baseline",
    "build_call_graph",
    "build_model",
    "build_project",
    "default_checks",
    "load_baseline",
    "run_analysis",
    "save_baseline",
    "select_checks",
]
