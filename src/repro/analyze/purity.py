"""Strategy-hook purity check (A-PURE).

The vectorized multi-replicate engine (:mod:`repro.simulator.batch`) and
the multi-host sweep service both assume strategy hooks can be *batched
and replayed*: called any number of times, in any process, with only the
strategy instance's own state changing.  That holds iff the hooks —
``assign``, ``release_tasks``, ``forget_worker``, ``on_worker_lost``,
``reset``/``_setup`` — never write shared state or perform I/O.  The same
contract binds the batch engine's vector kernel:
:meth:`repro.simulator.vector_kernels.VectorKernel.run_group` (and any
override on a subclass) must stay free of global writes, or lockstep
replicates would observe each other through module state.

The check walks the call graph forward from every hook override on every
project subclass of :class:`repro.core.strategies.base.Strategy` (and
every ``run_group`` of the vector kernel) and flags, anywhere in the
closure:

* ``global`` declarations (module-global writes);
* mutation of module-level containers (``_CACHE[k] = v``,
  ``_REGISTRY.append(...)`` on a module-level name);
* writes to class attributes (``type(self).x = ...``, ``Cls.attr = ...``);
* I/O externals: ``print``/``open``/``input``, writing ``os.*`` calls,
  ``subprocess``/``shutil``, ``sys.stdout``/``sys.stderr``, ``logging``,
  ``time.sleep``.

Mutating ``self`` (and objects the strategy owns, like its task pool) is
the hooks' job and stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analyze.checks import AnalysisModel, AnalyzeCheck
from repro.analyze.findings import AnalysisFinding
from repro.analyze.project import FunctionSymbol
from repro.lint.framework import Severity

__all__ = ["StrategyPurity", "STRATEGY_HOOKS", "VECTOR_KERNEL_HOOKS"]

#: The strategy contract's engine-facing hooks.
STRATEGY_HOOKS = frozenset(
    {"assign", "release_tasks", "forget_worker", "on_worker_lost", "reset", "_setup"}
)

#: The vector-kernel contract's engine-facing hooks (the batch engine's
#: analogue of the strategy hooks: one ``run_group`` per group of cells
#: over shared replicates, possibly in a worker process).
VECTOR_KERNEL_HOOKS = frozenset({"run_group"})

_STRATEGY_BASE = "repro.core.strategies.base.Strategy"
_VECTOR_KERNEL_BASE = "repro.simulator.vector_kernels.VectorKernel"

_IO_CALLS = frozenset(
    {
        "print",
        "open",
        "input",
        "os.replace",
        "os.unlink",
        "os.rename",
        "os.remove",
        "os.makedirs",
        "os.mkdir",
        "os.rmdir",
        "os.system",
        "os.chmod",
        "os.utime",
        "os.fdopen",
        "time.sleep",
    }
)
_IO_PREFIXES: Tuple[str, ...] = (
    "subprocess.",
    "shutil.",
    "sys.stdout",
    "sys.stderr",
    "logging.",
)

#: Container methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "write",
    }
)


class StrategyPurity(AnalyzeCheck):
    """Strategy hooks must not write shared state or perform I/O."""

    id = "A-PURE"
    severity = Severity.ERROR
    description = (
        "strategy hooks (assign/release_tasks/forget_worker/on_worker_lost/"
        "reset/_setup) and vector-kernel run_group() hooks, plus everything they "
        "reach, must not write module or class globals nor perform I/O, so "
        "batched/replayed execution stays safe"
    )

    def analyze(self, model: AnalysisModel) -> Iterator[AnalysisFinding]:
        roots = self._hook_roots(model)
        if not roots:
            return
        parents = model.graph.reachable(sorted(roots))
        seen: Set[str] = set()
        for qual in sorted(parents):
            symbol = model.project.functions.get(qual)
            if symbol is None:  # pragma: no cover - roots are real functions
                continue
            for op, node in self._impure_ops(model, symbol):
                key = f"A-PURE:{qual}:{op}"
                if key in seen:
                    continue
                seen.add(key)
                chain = tuple(model.graph.chain(parents, qual)) + (
                    f"{op} at line {getattr(node, 'lineno', 1)}",
                )
                yield self.analysis_finding(
                    model,
                    symbol.module,
                    node,
                    f"impure operation ({op}) reachable from strategy hook "
                    f"{chain[0].split(' ')[0]}; hooks must be batchable and "
                    "replayable without side effects",
                    key=key,
                    chain=chain,
                )

    def _hook_roots(self, model: AnalysisModel) -> Set[str]:
        roots: Set[str] = set()
        for base, hooks in (
            (_STRATEGY_BASE, STRATEGY_HOOKS),
            (_VECTOR_KERNEL_BASE, VECTOR_KERNEL_HOOKS),
        ):
            if base not in model.project.classes:
                continue
            classes = {base} | model.project.subclasses(base)
            for class_qual in classes:
                symbol = model.project.classes[class_qual]
                for name, method_qual in symbol.methods.items():
                    if name in hooks:
                        roots.add(method_qual)
        return roots

    # -- impure-operation detection ----------------------------------------

    def _impure_ops(
        self, model: AnalysisModel, symbol: FunctionSymbol
    ) -> List[Tuple[str, ast.AST]]:
        mod = model.project.modules[symbol.module]
        module_data = set(mod.constants)
        local_names = _local_names(symbol.node)
        ops: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(symbol.node):
            if isinstance(node, ast.Global):
                ops.append((f"global {', '.join(node.names)}", node))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    op = self._store_target_op(target, module_data, local_names)
                    if op is not None:
                        ops.append((op, node))
            elif isinstance(node, ast.Call):
                op = self._call_op(model, symbol.qualname, node, module_data, local_names)
                if op is not None:
                    ops.append((op, node))
        ops.sort(key=lambda o: (getattr(o[1], "lineno", 1), getattr(o[1], "col_offset", 0)))
        return ops

    def _store_target_op(
        self, target: ast.expr, module_data: Set[str], local_names: Set[str]
    ) -> Optional[str]:
        # _CACHE[k] = v / _CACHE.attr = v on a module-level name.
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name):
            if base is target:
                return None  # plain local rebinding (module writes need `global`)
            if base.id in module_data and base.id not in local_names:
                return f"module-global mutation of {base.id}"
        # type(self).x = ... / self.__class__.x = ... / Cls.attr = ...
        if (
            isinstance(target, ast.Attribute)
            and _is_class_object(target.value)
            and not (
                isinstance(target.value, ast.Name)
                and target.value.id in local_names
            )
        ):
            return f"class-attribute write .{target.attr}"
        return None

    def _call_op(
        self,
        model: AnalysisModel,
        qual: str,
        node: ast.Call,
        module_data: Set[str],
        local_names: Set[str],
    ) -> Optional[str]:
        site = model.graph.site_for_node(qual, node)
        if site is not None and site.external is not None:
            name = site.external
            if name in _IO_CALLS or any(name.startswith(p) for p in _IO_PREFIXES):
                return f"I/O call {name}"
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in module_data
            and func.value.id not in local_names
        ):
            return f"module-global mutation of {func.value.id}.{func.attr}()"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Attribute)
            and _is_class_object(func.value.value)
        ):
            return f"class-attribute mutation .{func.value.attr}.{func.attr}()"
        return None


def _is_class_object(expr: ast.expr) -> bool:
    """``type(self)`` / ``self.__class__`` / ``SomeClass`` heads (heuristic)."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "type"
    ):
        return True
    if isinstance(expr, ast.Attribute) and expr.attr == "__class__":
        return True
    if isinstance(expr, ast.Name) and expr.id[:1].isupper():
        return True
    return False


def _local_names(node: ast.AST) -> Set[str]:
    """Names bound locally in a function (params, assignments, loops, withs)."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            names.update(
                a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            )
            if args.vararg is not None:
                names.add(args.vararg.arg)
            if args.kwarg is not None:
                names.add(args.kwarg.arg)
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                names.update(_names_in_target(target))
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            names.update(_names_in_target(child.target))
        elif isinstance(child, ast.For):
            names.update(_names_in_target(child.target))
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                if item.optional_vars is not None:
                    names.update(_names_in_target(item.optional_vars))
        elif isinstance(child, ast.comprehension):
            names.update(_names_in_target(child.target))
        elif isinstance(child, ast.Global):
            names.difference_update(child.names)
    return names


def _names_in_target(target: ast.expr) -> Set[str]:
    """Names *bound* by an assignment target (``x.attr = v`` binds nothing)."""
    out: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out
