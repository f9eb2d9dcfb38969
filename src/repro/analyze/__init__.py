"""repro.analyze — the one static checker: per-file rules plus whole-program checks.

``repro-analyze check`` parses the tree once and runs one registry of
checks over it (:data:`repro.analyze.checks.ALL_CHECKS`):

* the per-file R-* rules of :mod:`repro.lint.rules` — RNG discipline,
  float equality, validation at the boundary, the strategy registry,
  ``__all__`` and docstring contracts, exception hygiene;
* interprocedural A-* checks over a *whole-program* view — symbol table,
  import graph and an approximate call graph over ``src/repro``:

  * **A-TAINT** — no wall-clock/entropy/unordered-iteration source
    reachable from the simulation engines, the fingerprint/exporter paths
    or any function of the deterministic packages
    (:mod:`repro.analyze.taint`);
  * **A-LOCK** / **A-LOCK-HELD** — every ``repro.store`` mutation
    dominated by FileLock acquisition, and no lock held across slow or
    forking calls (:mod:`repro.analyze.locks`);
  * **A-PURE** — strategy hooks write no shared state and do no I/O
    (:mod:`repro.analyze.purity`);
  * **A-DRIFT** / **A-DEAD** — ``docs/API.md`` matches ``__all__``, and
    exported functions are actually used (:mod:`repro.analyze.drift`).

CLI: ``repro-analyze check|graph|explain`` (``python -m repro.analyze``).
Known A-* debt lives in a committed baseline that may only shrink; see
:mod:`repro.analyze.baseline` and ``docs/ANALYSIS.md``.  R-* findings carry
no key: they are fixed or ``noqa``'d, never baselined.

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
    "load_baseline",
    "run_analysis",
    "save_baseline",
    "select_checks",
]
