"""Lock-discipline checks over the result store (A-LOCK, A-LOCK-HELD).

:mod:`repro.store` serializes every cache mutation on one
:class:`~repro.store.lock.FileLock` so parallel replicate runners can share
a store.  Two properties keep that true as the store grows:

* **A-LOCK** — every mutating filesystem operation (``os.replace``,
  ``os.unlink``, write-mode ``open``/``os.fdopen``, ...) inside
  ``repro.store`` must be *dominated* by lock acquisition: either the
  operation sits lexically inside a ``with <lock>:`` block, or every call
  path into its function runs under one (helpers only ever invoked from
  locked regions are fine — computed as a fixpoint over the call graph).
  Reads never lock by design (writes are atomic ``os.replace``); read-path
  best-effort cleanup is the sanctioned per-line ``noqa`` exemption.
* **A-LOCK-HELD** — no lock may be held across a slow or forking call:
  ``subprocess``/``os.fork``/``multiprocessing``, or anything that
  (transitively) enters a simulation engine (``simulate()``,
  ``simulate_batch()``, ``simulate_sweep()``).  A lock held across a long
  simulation starves every sibling replicate process.

Lock acquisitions are recognized both semantically (a ``with`` context
resolving to ``FileLock(...)`` or a project method named ``lock``) and
syntactically (``with self.lock():`` / ``with FileLock(...):``), so the
check works on fixture trees without the real lock module.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analyze.callgraph import ChainLink
from repro.analyze.checks import ENGINE_ENTRY_POINTS, AnalysisModel, AnalyzeCheck
from repro.analyze.findings import AnalysisFinding
from repro.analyze.project import FunctionSymbol
from repro.lint.framework import Severity

__all__ = ["LockDiscipline", "LockHeldAcrossSlowCall"]

#: Package whose mutations must be lock-dominated.
_SCOPE = "repro.store"

#: The lock implementation itself manipulates lock files without holding one.
_EXEMPT_MODULES = frozenset({"repro.store.lock"})

#: External calls that mutate store state on disk.
_MUTATION_CALLS = frozenset(
    {"os.replace", "os.unlink", "os.rename", "os.remove", "shutil.rmtree"}
)

#: Open-like externals whose mode argument decides mutation.
_OPEN_CALLS = frozenset({"open", "io.open", "os.fdopen"})

#: Slow/forking externals that must not run under the store lock.
_SLOW_CALLS = frozenset({"os.fork", "os.forkpty", "os.system"})
_SLOW_PREFIXES: Tuple[str, ...] = ("subprocess.", "multiprocessing.", "concurrent.")

#: Project functions that are long-running by contract.
_SLOW_INTERNAL = frozenset(ENGINE_ENTRY_POINTS)


def _in_scope(module: str) -> bool:
    return (module == _SCOPE or module.startswith(_SCOPE + ".")) and (
        module not in _EXEMPT_MODULES
    )


def _is_lock_context(model: AnalysisModel, qual: str, expr: ast.expr) -> bool:
    """Whether a ``with`` context expression acquires a store lock."""
    if not isinstance(expr, ast.Call):
        return False
    site = model.graph.site_for_node(qual, expr)
    if site is not None:
        for target in site.targets:
            name = target.rsplit(".", 1)[1]
            if name == "lock" or ".FileLock." in f".{target}.":
                return True
    func = expr.func
    if isinstance(func, ast.Attribute) and func.attr == "lock":
        return True
    if isinstance(func, ast.Name) and func.id == "FileLock":
        return True
    return False


def _locked_regions(model: AnalysisModel, symbol: FunctionSymbol) -> Set[int]:
    """ids of AST nodes lexically inside a lock-acquiring ``with`` body."""
    locked: Set[int] = set()
    for node in ast.walk(symbol.node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if not any(
            _is_lock_context(model, symbol.qualname, item.context_expr)
            for item in node.items
        ):
            continue
        for stmt in node.body:
            for child in ast.walk(stmt):
                locked.add(id(child))
    return locked


def _mutation_name(model: AnalysisModel, qual: str, node: ast.Call) -> Optional[str]:
    """The canonical mutation name of a call, or ``None`` if not a mutation."""
    site = model.graph.site_for_node(qual, node)
    if site is None or site.external is None:
        return None
    name = site.external
    if name in _MUTATION_CALLS:
        return name
    if name in _OPEN_CALLS and _write_mode(node):
        return f"{name}(mode=w)"
    return None


def _write_mode(node: ast.Call) -> bool:
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(ch in mode.value for ch in "wax+")
    return True  # dynamic mode: assume the worst


class LockDiscipline(AnalyzeCheck):
    """Store mutations must be dominated by FileLock acquisition."""

    id = "A-LOCK"
    severity = Severity.ERROR
    description = (
        "every filesystem mutation in repro.store (os.replace/os.unlink/"
        "write-mode open, ...) must run inside a FileLock 'with' block, "
        "either locally or on every call path into its function"
    )

    def analyze(self, model: AnalysisModel) -> Iterator[AnalysisFinding]:
        scope = [
            s
            for s in model.project.iter_functions()
            if _in_scope(s.module)
        ]
        locked_regions = {s.qualname: _locked_regions(model, s) for s in scope}
        always_locked = self._always_locked(model, scope, locked_regions)
        for symbol in scope:
            regions = locked_regions[symbol.qualname]
            for node in ast.walk(symbol.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _mutation_name(model, symbol.qualname, node)
                if name is None or id(node) in regions:
                    continue
                if symbol.qualname in always_locked:
                    continue
                yield self.analysis_finding(
                    model,
                    symbol.module,
                    node,
                    f"store mutation {name} in {symbol.qualname} is not "
                    "dominated by FileLock acquisition; concurrent writers "
                    "could interleave partial cache state",
                    key=f"A-LOCK:{symbol.qualname}:{name}",
                    chain=(
                        f"{symbol.qualname} [{symbol.module}]",
                        f"{name} at line {getattr(node, 'lineno', 1)} outside any lock",
                    ),
                )

    def _always_locked(
        self,
        model: AnalysisModel,
        scope: List[FunctionSymbol],
        locked_regions: Dict[str, Set[int]],
    ) -> Set[str]:
        """Functions whose every in-scope call site runs under a lock."""
        in_scope = {s.qualname for s in scope}
        # Which call edges originate inside a locked region of their caller?
        locked_edges: Dict[Tuple[str, str], bool] = {}
        for symbol in scope:
            regions = locked_regions[symbol.qualname]
            for node in ast.walk(symbol.node):
                if not isinstance(node, ast.Call):
                    continue
                site = model.graph.site_for_node(symbol.qualname, node)
                if site is None:
                    continue
                inside = id(node) in regions
                for target in site.targets:
                    edge = (symbol.qualname, target)
                    locked_edges[edge] = locked_edges.get(edge, True) and inside
        always: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for symbol in scope:
                qual = symbol.qualname
                if qual in always:
                    continue
                callers = [
                    (caller, _)
                    for caller, _ in model.graph.callers.get(qual, ())
                    if caller in in_scope
                ]
                if not callers:
                    continue
                if all(
                    locked_edges.get((caller, qual), False) or caller in always
                    for caller, _ in callers
                ):
                    always.add(qual)
                    changed = True
        return always


class LockHeldAcrossSlowCall(AnalyzeCheck):
    """No FileLock may be held across subprocess/fork or a simulation."""

    id = "A-LOCK-HELD"
    severity = Severity.ERROR
    description = (
        "code inside a FileLock 'with' block must not call subprocess/fork/"
        "multiprocessing or reach a simulation engine; a lock held "
        "across slow work starves every process sharing the store"
    )

    def analyze(self, model: AnalysisModel) -> Iterator[AnalysisFinding]:
        for symbol in model.project.iter_functions():
            regions = _locked_regions(model, symbol)
            if not regions:
                continue
            roots: List[Tuple[str, ast.AST]] = []
            direct: List[Tuple[str, ast.AST]] = []
            for node in ast.walk(symbol.node):
                if not isinstance(node, ast.Call) or id(node) not in regions:
                    continue
                site = model.graph.site_for_node(symbol.qualname, node)
                if site is None:
                    continue
                if site.external is not None and _is_slow_external(site.external):
                    direct.append((site.external, node))
                for target in site.targets:
                    roots.append((target, node))
            for name, node in direct:
                yield self._finding(model, symbol, node, name, chain_tail=())
            # Transitive: anything called under the lock that reaches a slow
            # call or the simulation engines.
            parents = model.graph.reachable([t for t, _ in roots])
            for qual in sorted(parents):
                slow = self._slow_in(model, qual)
                if slow is None:
                    continue
                root = qual
                while True:
                    link: Optional[ChainLink] = parents.get(root)
                    if link is None:
                        break
                    root = link.parent
                entry_node = next((n for t, n in roots if t == root), None)
                if entry_node is None:  # pragma: no cover - defensive
                    continue
                chain = tuple(model.graph.chain(parents, qual))
                yield self._finding(model, symbol, entry_node, slow, chain_tail=chain)

    def _slow_in(self, model: AnalysisModel, qual: str) -> Optional[str]:
        if qual in _SLOW_INTERNAL:
            return qual
        for name, _ in model.graph.external_calls(qual):
            if _is_slow_external(name):
                return name
        return None

    def _finding(
        self,
        model: AnalysisModel,
        symbol: FunctionSymbol,
        node: ast.AST,
        slow_name: str,
        *,
        chain_tail: Tuple[str, ...],
    ) -> AnalysisFinding:
        chain = (f"{symbol.qualname} [{symbol.module}] holds the lock",) + chain_tail
        return self.analysis_finding(
            model,
            symbol.module,
            node,
            f"{symbol.qualname} calls {slow_name} while holding a FileLock; "
            "move slow work outside the locked region",
            key=f"A-LOCK-HELD:{symbol.qualname}:{slow_name}",
            chain=chain,
        )


def _is_slow_external(name: str) -> bool:
    return name in _SLOW_CALLS or any(name.startswith(p) for p in _SLOW_PREFIXES)
