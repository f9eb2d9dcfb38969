"""Check registry and shared analysis model of ``repro-analyze check``.

The registry holds both kinds of check, all :class:`repro.lint.framework.Rule`
subclasses, so the lint framework's noqa suppression, sorting and
reporters apply to every one of them:

* the per-file R-* rules of :mod:`repro.lint.rules`, which see one module
  at a time;
* the interprocedural A-* checks of this package, which implement
  ``check_package`` over an :class:`AnalysisModel` — the project symbol
  table plus call graph — built once per run and shared across checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analyze.callgraph import CallGraph, build_call_graph
from repro.analyze.findings import AnalysisFinding
from repro.analyze.project import Project, build_project
from repro.lint.framework import Finding, ModuleInfo, Rule, run_lint
from repro.lint.rules import ALL_RULES

__all__ = [
    "ALL_CHECKS",
    "ENGINE_ENTRY_POINTS",
    "AnalysisModel",
    "AnalyzeCheck",
    "build_model",
    "run_analysis",
    "select_checks",
]

#: The simulation engines' entry points: A-TAINT's determinism roots and the
#: long-running calls A-LOCK-HELD keeps out of locked regions.
ENGINE_ENTRY_POINTS: Tuple[str, ...] = (
    "repro.simulator.engine.simulate",
    "repro.simulator.batch.simulate_batch",
    "repro.simulator.batch.simulate_sweep",
)


@dataclass
class AnalysisModel:
    """The whole-program view shared by every check of one run."""

    project: Project
    graph: CallGraph


def build_model(modules: Sequence[ModuleInfo]) -> AnalysisModel:
    """Build symbol table and call graph for *modules*."""
    project = build_project(modules)
    return AnalysisModel(project=project, graph=build_call_graph(project))


class AnalyzeCheck(Rule):
    """Base class: a lint rule that runs over the shared analysis model."""

    def __init__(self, model: Optional[AnalysisModel] = None) -> None:
        self._model = model

    def check_package(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        """Build (or reuse) the model and delegate to :meth:`analyze`."""
        if self._model is None:
            self._model = build_model(modules)
        return self.analyze(self._model)

    def analyze(self, model: AnalysisModel) -> Iterator[Finding]:
        """Yield findings for the whole program; overridden per check."""
        raise NotImplementedError

    def analysis_finding(
        self,
        model: AnalysisModel,
        module_name: str,
        node: ast.AST,
        message: str,
        *,
        key: str,
        chain: Tuple[str, ...] = (),
    ) -> AnalysisFinding:
        """Build an :class:`AnalysisFinding` anchored in *module_name*."""
        info = model.project.modules[module_name].info
        return AnalysisFinding(
            rule_id=self.id,
            severity=self.severity,
            path=str(info.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            key=key,
            chain=chain,
        )


def _check_index() -> Dict[str, Type[Rule]]:
    return {cls.id: cls for cls in ALL_CHECKS}


def _select(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> List[Type[Rule]]:
    """Registry classes kept by *select* minus *ignore*; unknown ids raise."""
    index = _check_index()
    chosen = list(index)
    for ids, keep in ((select, True), (ignore, False)):
        if ids is None:
            continue
        named = [s.upper() for s in ids]
        unknown = sorted(set(named) - set(index))
        if unknown:
            raise ValueError(f"unknown check id(s): {', '.join(unknown)}")
        chosen = [cid for cid in chosen if (cid in named) == keep]
    return [index[cid] for cid in chosen]


def _instantiate(
    classes: Sequence[Type[Rule]], model: Optional[AnalysisModel], api_doc: Optional[str]
) -> List[Rule]:
    checks: List[Rule] = []
    for cls in classes:
        if issubclass(cls, ApiDrift):
            checks.append(cls(model=model, api_doc=api_doc))
        elif issubclass(cls, AnalyzeCheck):
            checks.append(cls(model=model))
        else:
            checks.append(cls())
    return checks


def select_checks(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    *,
    model: Optional[AnalysisModel] = None,
    api_doc: Optional[str] = None,
) -> List[Rule]:
    """Fresh instances of the registry filtered by id, R-* and A-* alike.

    *select* keeps only the named checks and *ignore* drops the named
    checks; unknown ids raise ``ValueError`` so typos fail loudly.  The A-*
    checks share *model*.
    """
    return _instantiate(_select(select, ignore), model, api_doc)


def run_analysis(
    modules: Sequence[ModuleInfo],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    api_doc: Optional[str] = None,
) -> List[Finding]:
    """Run the (filtered) check set over *modules*.

    Builds the shared model once — only when an A-* check is selected —
    runs every check through the lint framework (so per-line
    ``# repro: noqa[...]`` suppressions apply) and returns the sorted
    findings.
    """
    classes = _select(select, ignore)
    model = None
    if any(issubclass(cls, AnalyzeCheck) for cls in classes):
        model = build_model(modules)
    return run_lint(modules, _instantiate(classes, model, api_doc))


# Imported late so the check modules can import AnalyzeCheck from here.
from repro.analyze.drift import ApiDrift, DeadPublicCode  # noqa: E402
from repro.analyze.locks import LockDiscipline, LockHeldAcrossSlowCall  # noqa: E402
from repro.analyze.purity import StrategyPurity  # noqa: E402
from repro.analyze.taint import DeterminismTaint  # noqa: E402

#: Every check of ``repro-analyze check``, in reporting-priority order: the
#: per-file rules first, then the interprocedural checks.
ALL_CHECKS: List[Type[Rule]] = [
    *ALL_RULES,
    DeterminismTaint,
    LockDiscipline,
    LockHeldAcrossSlowCall,
    StrategyPurity,
    ApiDrift,
    DeadPublicCode,
]
