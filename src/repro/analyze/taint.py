"""Determinism taint check (A-TAINT).

The paper's results only reproduce when every simulated run is a pure
function of ``(config, seed)``.  This check walks the call graph *forward*
from two kinds of root and flags any reached function that contains a
nondeterminism source.  The roots are:

* the simulation engines' entry points and the exporter/fingerprint
  paths (:data:`ENTRY_ROOT_PATTERNS`);
* every function defined in :data:`DETERMINISTIC_PACKAGES` — the
  simulator, strategies, task pools and fault models, and the metrics and
  experiment drivers (their CLIs included), whose records carry simulated
  time only — whether or not an entry point reaches it, and the
  import-time code of those packages' modules (module-level statements
  and class bodies).  A function an entry point does reach keeps the
  chain from that entry point.

The sources are:

* wall-clock, OS-entropy and process-identity reads (``time.time``,
  ``datetime.now``, ``os.urandom``, ``os.getpid``, ``uuid.uuid4``, stdlib
  ``random.*``, ``secrets.*``);
* filesystem enumeration whose order the OS chooses (``os.listdir``,
  ``glob.glob``, ``os.scandir``, ``os.walk``) unless directly wrapped in
  ``sorted(...)``;
* iteration over a raw ``set``/``frozenset`` value (hash order is salted
  per process) unless wrapped in ``sorted(...)``.

Declared *sanitized boundaries* are not traversed: :mod:`repro.obs.profile`
(the one sanctioned wall-clock module), :mod:`repro.utils.rng` (the one
sanctioned entropy boundary — fresh entropy only ever enters through an
explicit ``seed=None``), :mod:`repro.store.claims` (claim heartbeats,
staleness and drain polling read wall time by design, through an
injectable clock; what a claim guards comes from the deterministic engine
through the store), the :mod:`repro.serve` service layer (request
latencies and quota refill are wall-clock by nature; simulation results it
returns come from the deterministic engine through the store), and CLI
entry-point modules outside :data:`DETERMINISTIC_PACKAGES`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analyze.checks import ENGINE_ENTRY_POINTS, AnalysisModel, AnalyzeCheck
from repro.analyze.findings import AnalysisFinding
from repro.lint.framework import Severity

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "ENTRY_ROOT_PATTERNS",
    "DeterminismTaint",
    "entry_roots",
    "package_roots",
    "sanitized_modules",
]

#: Call-graph roots: the deterministic core every source must stay out of.
#: Exact qualnames, or ``module.*`` for every public function of a module.
ENTRY_ROOT_PATTERNS: Tuple[str, ...] = ENGINE_ENTRY_POINTS + (
    "repro.store.fingerprint.*",
    "repro.obs.export.*",
)

#: Packages whose every function is a root as well, reached or not: the
#: engines' building blocks, and the metrics and experiment drivers whose
#: records must carry simulated time only.
DETERMINISTIC_PACKAGES: Tuple[str, ...] = (
    "repro.simulator",
    "repro.core.strategies",
    "repro.taskpool",
    "repro.faults",
    "repro.obs",
    "repro.experiments",
)

#: Exact external names that read a clock, an entropy pool or the process id.
_SOURCE_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
        "os.urandom",
        "os.getrandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Prefixes covering whole nondeterministic namespaces.
_SOURCE_PREFIXES: Tuple[str, ...] = ("random.", "secrets.", "np.random.", "numpy.random.")

#: Filesystem enumeration in OS order; fine when wrapped in ``sorted(...)``.
_FS_ORDER_CALLS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)


def entry_roots(model: AnalysisModel) -> List[str]:
    """Resolve :data:`ENTRY_ROOT_PATTERNS` against the project."""
    roots: List[str] = []
    for pattern in ENTRY_ROOT_PATTERNS:
        if pattern.endswith(".*"):
            module = pattern[: -len(".*")]
            symbols = model.project.modules.get(module)
            if symbols is None:
                continue
            roots.extend(
                qual
                for name, qual in sorted(symbols.functions.items())
                if not name.startswith("_")
            )
        elif pattern in model.project.functions:
            roots.append(pattern)
    return roots


def _deterministic(module: str) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in DETERMINISTIC_PACKAGES)


def package_roots(model: AnalysisModel) -> List[str]:
    """Every function and module-level caller of :data:`DETERMINISTIC_PACKAGES`."""
    functions = [
        qual
        for qual, symbol in sorted(model.project.functions.items())
        if _deterministic(symbol.module)
    ]
    modules = [
        model.graph.module_caller(name)
        for name in sorted(model.project.modules)
        if _deterministic(name)
    ]
    return functions + modules


def sanitized_modules(model: AnalysisModel) -> List[str]:
    """Modules the taint walk must not traverse into."""
    out = []
    for name in sorted(model.project.modules):
        if (
            name in ("repro.obs.profile", "repro.utils.rng", "repro.store.claims")
            or name == "repro.serve"
            or name.startswith("repro.serve.")
            or (name.endswith((".cli", ".__main__")) and not _deterministic(name))
        ):
            out.append(name)
    return out


class DeterminismTaint(AnalyzeCheck):
    """Nondeterminism sources must not reach the simulate/fingerprint core."""

    id = "A-TAINT"
    severity = Severity.ERROR
    description = (
        "no wall-clock, OS-entropy, process-id, unordered-filesystem or "
        "raw-set-iteration source may be reachable from simulate()/"
        "simulate_batch()/simulate_sweep(), the fingerprint/exporter paths "
        f"or any function or import-time code of {', '.join(DETERMINISTIC_PACKAGES)} "
        "(sanitized: repro.obs.profile, repro.utils.rng, repro.store.claims, "
        "repro.serve, other packages' CLI modules)"
    )

    def analyze(self, model: AnalysisModel) -> Iterator[AnalysisFinding]:
        skip = sanitized_modules(model)
        parents = model.graph.reachable(entry_roots(model), skip_modules=skip)
        # Package roots only add what the entry roots miss, so a function an
        # entry root reaches keeps the chain from that entry root.
        rest = [qual for qual in package_roots(model) if qual not in parents]
        for qual, link in model.graph.reachable(rest, skip_modules=skip).items():
            parents.setdefault(qual, link)
        for qual in sorted(parents):
            module = model.graph.module_of(qual)
            if module is None:  # pragma: no cover - roots are functions or modules
                continue
            symbol = model.project.functions.get(qual)
            body = symbol.node if symbol is not None else model.graph.module_level(module)
            for source_name, node in self._direct_sources(model, qual, body):
                chain = tuple(model.graph.chain(parents, qual)) + (
                    f"{source_name} at line {getattr(node, 'lineno', 1)}",
                )
                yield self.analysis_finding(
                    model,
                    module,
                    node,
                    f"nondeterminism source {source_name} is reachable from "
                    f"the deterministic core (entry: {chain[0].split(' ')[0]}); "
                    "results would stop being a pure function of (config, seed)",
                    key=f"A-TAINT:{qual}:{source_name}",
                    chain=chain,
                )

    # -- source detection --------------------------------------------------

    def _direct_sources(
        self, model: AnalysisModel, qual: str, body: ast.AST
    ) -> List[Tuple[str, ast.AST]]:
        parents = _parent_map(body)
        sources: List[Tuple[str, ast.AST]] = []
        for name, site in model.graph.external_calls(qual):
            node = _node_at(body, site.lineno, site.col)
            if node is None:  # pragma: no cover - defensive
                continue
            if name in _SOURCE_CALLS or any(name.startswith(p) for p in _SOURCE_PREFIXES):
                sources.append((name, node))
            elif name in _FS_ORDER_CALLS and not _sorted_wrapped(node, parents):
                sources.append((f"{name} (unsorted)", node))
        sources.extend(("set-iteration", node) for node in _unordered_iterations(body))
        sources.sort(key=lambda s: (getattr(s[1], "lineno", 1), getattr(s[1], "col_offset", 0)))
        return sources


def _parent_map(root: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _node_at(root: ast.AST, lineno: int, col: int) -> Optional[ast.AST]:
    """The ``ast.Call`` at an exact position (call sites store positions)."""
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and getattr(node, "lineno", None) == lineno
            and getattr(node, "col_offset", None) == col
        ):
            return node
    return None  # pragma: no cover - positions come from the same tree


def _sorted_wrapped(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """True when *node* is a direct argument of a ``sorted(...)`` call."""
    parent = parents.get(id(node))
    if isinstance(parent, ast.GeneratorExp):
        # ``sorted(p for p in os.listdir(d))``: the listdir call sits in a
        # comprehension whose parent is the sorted() call.
        parent = parents.get(id(parent))
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "sorted"
    )


def _unordered_iterations(root: ast.AST) -> List[ast.AST]:
    """Loop/comprehension iterables that are raw set values."""
    set_vars = _set_typed_locals(root)
    out: List[ast.AST] = []
    iters: List[ast.expr] = []
    for node in ast.walk(root):
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
    for it in iters:
        if _is_set_expr(it, set_vars):
            out.append(it)
    return out


def _set_typed_locals(root: ast.AST) -> Set[str]:
    """Local names assigned a set literal/constructor anywhere in *root*."""
    names: Set[str] = set()
    for node in ast.walk(root):
        if isinstance(node, ast.Assign):
            if _is_set_expr(node.value, set()):
                names.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
    return names


def _is_set_expr(expr: ast.expr, set_vars: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    if isinstance(expr, ast.Name):
        return expr.id in set_vars
    return False
