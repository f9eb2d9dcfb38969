"""Check registry and shared analysis model for :mod:`repro.analyze`.

Checks are :class:`repro.lint.framework.Rule` subclasses implementing
``check_package``, so the lint framework's noqa suppression, sorting and
reporters apply unchanged.  They differ from lint rules in what they see:
each check receives an :class:`AnalysisModel` — the project symbol table
plus call graph — built once per run and shared across checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analyze.callgraph import CallGraph, build_call_graph
from repro.analyze.findings import AnalysisFinding
from repro.analyze.project import Project, build_project
from repro.lint.framework import Finding, ModuleInfo, Rule, run_lint

__all__ = [
    "ALL_CHECKS",
    "ENGINE_ENTRY_POINTS",
    "AnalysisModel",
    "AnalyzeCheck",
    "build_model",
    "default_checks",
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


def _check_index() -> Dict[str, Type[AnalyzeCheck]]:
    return {cls.id: cls for cls in ALL_CHECKS}


def default_checks(
    model: Optional[AnalysisModel] = None, *, api_doc: Optional[str] = None
) -> List[AnalyzeCheck]:
    """Fresh instances of the full check set sharing one *model*."""
    return _instantiate(list(_check_index()), model, api_doc)


def select_checks(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    *,
    model: Optional[AnalysisModel] = None,
    api_doc: Optional[str] = None,
) -> List[AnalyzeCheck]:
    """The check set filtered by id; unknown ids raise ``ValueError``."""
    index = _check_index()
    chosen = list(index)
    if select is not None:
        wanted = [s.upper() for s in select]
        unknown = sorted(set(wanted) - set(index))
        if unknown:
            raise ValueError(f"unknown check id(s): {', '.join(unknown)}")
        chosen = [cid for cid in chosen if cid in wanted]
    if ignore is not None:
        dropped = [s.upper() for s in ignore]
        unknown = sorted(set(dropped) - set(index))
        if unknown:
            raise ValueError(f"unknown check id(s): {', '.join(unknown)}")
        chosen = [cid for cid in chosen if cid not in dropped]
    return _instantiate(chosen, model, api_doc)


def _instantiate(
    ids: List[str], model: Optional[AnalysisModel], api_doc: Optional[str]
) -> List[AnalyzeCheck]:
    from repro.analyze.drift import ApiDrift

    index = _check_index()
    checks: List[AnalyzeCheck] = []
    for cid in ids:
        cls = index[cid]
        if issubclass(cls, ApiDrift):
            checks.append(cls(model=model, api_doc=api_doc))
        else:
            checks.append(cls(model=model))
    return checks


def run_analysis(
    modules: Sequence[ModuleInfo],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    api_doc: Optional[str] = None,
) -> List[Finding]:
    """Run the (filtered) analyzer check set over *modules*.

    Builds the shared model once, runs every check through the lint
    framework (so per-line ``# repro: noqa[A-...]`` suppressions apply) and
    returns the sorted findings.
    """
    model = build_model(modules)
    checks = select_checks(select, ignore, model=model, api_doc=api_doc)
    return run_lint(modules, checks)


# Imported late so the check modules can import AnalyzeCheck from here.
from repro.analyze.drift import ApiDrift, DeadPublicCode  # noqa: E402
from repro.analyze.locks import LockDiscipline, LockHeldAcrossSlowCall  # noqa: E402
from repro.analyze.purity import StrategyPurity  # noqa: E402
from repro.analyze.taint import DeterminismTaint  # noqa: E402

#: Every analyzer check, in reporting-priority order.
ALL_CHECKS: List[Type[AnalyzeCheck]] = [
    DeterminismTaint,
    LockDiscipline,
    LockHeldAcrossSlowCall,
    StrategyPurity,
    ApiDrift,
    DeadPublicCode,
]
