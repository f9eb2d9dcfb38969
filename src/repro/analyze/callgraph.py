"""Approximate whole-program call graph over a :class:`~repro.analyze.project.Project`.

The builder resolves, per function, every ``ast.Call`` (and bare
method/function reference) to either a set of *internal* targets (project
function qualnames) or a canonical *external* dotted name (``time.time``,
``os.replace``, ...).  Resolution is a deliberately modest abstract
interpretation:

* module-level functions and classes resolve through the import table;
* ``self.method()`` resolves through the class and its project bases;
* instance methods dispatch *virtually*: an edge to ``Strategy.assign``
  also fans out to every project subclass override, which is how the
  engine's ``strategy.assign(...)`` reaches all registered strategies;
* local variables pick up types from constructor calls, parameter/return
  annotations and ``self.<attr>`` assignments, so hoisted bound methods
  (``assign = strategy.assign``) and ``store.lock()`` context managers
  resolve correctly;
* subscripts into module-level registries of classes (``STRATEGIES[name]``)
  resolve to *every* registered class, so ``make_strategy`` edges into each
  strategy constructor;
* a ``with`` (``async with``) item whose value resolves to a project
  instance — a constructor call such as ``FileLock(path)``, or a call with
  an annotated return type such as ``ResultStore.lock() -> FileLock`` —
  edges into that class's ``__enter__`` and ``__exit__`` (``__aenter__``
  and ``__aexit__``).

Import-time code — top-level statements, and the decorators, bases and
non-method body of each top-level class — is recorded under one synthetic
caller per module, ``pkg.mod:<module>`` (:meth:`CallGraph.module_caller`).

Unresolvable callees (``fh.write``, numpy internals, dynamic dispatch the
model cannot see) are counted, not guessed — the checks built on top treat
absence of an edge as "not proven", and the fixture tests pin the cases
that must resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analyze.project import FunctionNode, FunctionSymbol, ModuleSymbols, Project

__all__ = ["CallGraph", "CallSite", "ChainLink", "build_call_graph"]


# -- value references -------------------------------------------------------
# The tiny abstract domain local variables and expressions resolve into.


@dataclass(frozen=True)
class _ModuleRef:
    name: str


@dataclass(frozen=True)
class _ClassRef:
    qualname: str


@dataclass(frozen=True)
class _InstanceRef:
    qualname: str


@dataclass(frozen=True)
class _FuncRef:
    qualname: str
    virtual: bool = False


@dataclass(frozen=True)
class _ClassSetRef:
    qualnames: Tuple[str, ...]


@dataclass(frozen=True)
class _ExternalRef:
    dotted: str


@dataclass(frozen=True)
class _SuperRef:
    qualname: str  # class whose bases to search


_Ref = Union[_ModuleRef, _ClassRef, _InstanceRef, _FuncRef, _ClassSetRef, _ExternalRef, _SuperRef]

#: Suffix of the synthetic caller owning a module's import-time code.
_MODULE_CALLER = ":<module>"

#: Builtin callables treated as externals under their bare name.
_BUILTINS = frozenset(
    {
        "print",
        "open",
        "input",
        "sorted",
        "set",
        "frozenset",
        "list",
        "tuple",
        "dict",
        "iter",
        "next",
        "super",
        "getattr",
        "setattr",
        "vars",
        "eval",
        "exec",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One resolved call (or bound-method reference) inside a function."""

    caller: str
    lineno: int
    col: int
    targets: Tuple[str, ...] = ()
    external: Optional[str] = None
    #: True for bare attribute references (properties, hoisted bound
    #: methods) as opposed to syntactic calls.
    is_ref: bool = False


@dataclass(frozen=True)
class ChainLink:
    """One step of an explanation chain: who called, from where."""

    parent: str
    lineno: int


@dataclass
class _FunctionFacts:
    sites: List[CallSite] = field(default_factory=list)
    #: id(ast.Call) -> CallSite, so checks walking the AST themselves can
    #: recover the resolution of a specific node.
    by_node: Dict[int, CallSite] = field(default_factory=dict)


class CallGraph:
    """Call edges, reverse edges and reachability over a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._facts: Dict[str, _FunctionFacts] = {}
        self.unresolved: int = 0
        self._build()
        self.edges: Dict[str, List[Tuple[str, int]]] = {}
        self.callers: Dict[str, List[Tuple[str, int]]] = {}
        for qual, facts in self._facts.items():
            for site in facts.sites:
                for target in site.targets:
                    self.edges.setdefault(qual, []).append((target, site.lineno))
                    self.callers.setdefault(target, []).append((qual, site.lineno))

    # -- public accessors --------------------------------------------------

    def sites(self, qualname: str) -> List[CallSite]:
        """All resolved call sites of one function (empty if none)."""
        facts = self._facts.get(qualname)
        return list(facts.sites) if facts is not None else []

    def site_for_node(self, qualname: str, node: ast.AST) -> Optional[CallSite]:
        """The resolution of a specific ``ast.Call`` node, if any."""
        facts = self._facts.get(qualname)
        if facts is None:
            return None
        return facts.by_node.get(id(node))

    def external_calls(self, qualname: str) -> List[Tuple[str, CallSite]]:
        """``(canonical_name, site)`` for each external call of a function."""
        return [(s.external, s) for s in self.sites(qualname) if s.external is not None]

    def reachable(
        self,
        roots: Iterable[str],
        *,
        skip_modules: Iterable[str] = (),
        reverse: bool = False,
    ) -> Dict[str, Optional[ChainLink]]:
        """BFS closure from *roots*; maps each reached qualname to its parent link.

        Functions living in a ``skip_modules`` module (sanitized boundaries)
        are neither expanded nor reported.  Roots map to ``None``.
        """
        skip = tuple(skip_modules)
        graph = self.callers if reverse else self.edges
        parents: Dict[str, Optional[ChainLink]] = {}
        queue: List[str] = []
        for root in roots:
            if root not in parents and not self._skipped(root, skip):
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for target, lineno in graph.get(current, ()):
                if target in parents or self._skipped(target, skip):
                    continue
                parents[target] = ChainLink(parent=current, lineno=lineno)
                queue.append(target)
        return parents

    def _skipped(self, qualname: str, skip: Tuple[str, ...]) -> bool:
        module = self.module_of(qualname)
        if module is None:
            return False
        return any(module == prefix or module.startswith(prefix + ".") for prefix in skip)

    @staticmethod
    def module_caller(module: str) -> str:
        """The synthetic caller that owns *module*'s import-time code."""
        return f"{module}{_MODULE_CALLER}"

    def module_of(self, qualname: str) -> Optional[str]:
        """The module a function or a :meth:`module_caller` lives in."""
        symbol = self.project.functions.get(qualname)
        if symbol is not None:
            return symbol.module
        if qualname.endswith(_MODULE_CALLER):
            return qualname[: -len(_MODULE_CALLER)]
        return None

    def module_level(self, module: str) -> ast.Module:
        """*module*'s import-time code: what no indexed function owns.

        Top-level statements other than function and class definitions,
        plus each top-level class's decorators, bases, keywords and body
        statements other than its methods.
        """
        body: List[ast.stmt] = []
        for node in self.project.modules[module].info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.ClassDef):
                heads = [*node.decorator_list, *node.bases, *(k.value for k in node.keywords)]
                body.extend(ast.Expr(value=expr) for expr in heads)
                body.extend(
                    item
                    for item in node.body
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
            else:
                body.append(node)
        return ast.Module(body=body, type_ignores=[])

    def chain(self, parents: Mapping[str, Optional[ChainLink]], qualname: str) -> List[str]:
        """Root-to-*qualname* call chain as rendered ``qual (path:line)`` steps."""
        steps: List[Tuple[str, Optional[ChainLink]]] = []
        current: Optional[str] = qualname
        while current is not None:
            link = parents.get(current)
            steps.append((current, link))
            current = link.parent if link is not None else None
        steps.reverse()
        out: List[str] = []
        for qual, link in steps:
            where = self.module_of(qual) or "?"
            if link is None:
                out.append(f"{qual} [{where}]")
            else:
                out.append(f"{qual} [{where}] (called from {link.parent} line {link.lineno})")
        return out

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        self._attr_type_prepass()
        for symbol in self.project.iter_functions():
            self._facts[symbol.qualname] = self._analyze_function(symbol)
        for mod in sorted(self.project.modules):
            self._analyze_module_level(self.project.modules[mod])

    def _attr_type_prepass(self) -> None:
        """Record instance-attribute types of ``self.<attr> = ...`` assignments.

        The value is a project-class constructor call (``ProjectClass(...)``)
        or a parameter annotated with a project class (``self._store =
        store`` with ``store: ResultStore``).
        """
        for symbol in self.project.iter_functions():
            if symbol.cls is None:
                continue
            cls = self.project.classes[symbol.cls]
            mod = self.project.modules[symbol.module]
            args = symbol.node.args
            params = {
                arg.arg: arg.annotation
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if arg.annotation is not None
            }
            for node in ast.walk(symbol.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    annotated = Project._annotation_name(node.annotation)
                    if (
                        annotated is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        resolved = self.project.resolve_name(mod, annotated)
                        if resolved is not None and resolved in self.project.classes:
                            cls.attr_types.setdefault(target.attr, resolved)
                        continue
                if (
                    target is None
                    or value is None
                    or not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                if isinstance(value, ast.Call):
                    named = Project._annotation_name(value.func)
                elif isinstance(value, ast.Name) and value.id in params:
                    named = Project._annotation_name(params[value.id])
                else:
                    continue
                if named is None:
                    continue
                resolved = self.project.resolve_name(mod, named)
                if resolved is not None and resolved in self.project.classes:
                    cls.attr_types.setdefault(target.attr, resolved)

    def _analyze_module_level(self, mod: ModuleSymbols) -> None:
        """Resolve calls in import-time code under :meth:`module_caller`."""
        qual = self.module_caller(mod.name)
        facts = _FunctionFacts()
        env: Dict[str, _Ref] = {}
        for node in ast.walk(self.module_level(mod.name)):
            if isinstance(node, ast.Call):
                self._resolve_call_site(qual, mod, None, env, node, facts)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self._resolve_with_items(qual, mod, None, env, node, facts)
        if facts.sites:
            self._facts[qual] = facts

    def _analyze_function(self, symbol: FunctionSymbol) -> _FunctionFacts:
        mod = self.project.modules[symbol.module]
        env = self._build_env(symbol, mod)
        facts = _FunctionFacts()
        call_funcs = set()
        for node in ast.walk(symbol.node):
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                self._resolve_call_site(symbol.qualname, mod, symbol, env, node, facts)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self._resolve_with_items(symbol.qualname, mod, symbol, env, node, facts)
        # Bare references to project methods/functions (properties, hoisted
        # bound methods, callbacks) count as edges too — a reference that is
        # never invoked is rarer than a callback we would otherwise miss.
        for node in ast.walk(symbol.node):
            if not isinstance(node, ast.Attribute) or id(node) in call_funcs:
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            ref = self._resolve_value(node, mod, symbol, env)
            if isinstance(ref, _FuncRef):
                targets = self._expand_virtual(ref)
                site = CallSite(
                    caller=symbol.qualname,
                    lineno=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    targets=targets,
                    is_ref=True,
                )
                facts.sites.append(site)
        return facts

    # -- environments ------------------------------------------------------

    def _build_env(self, symbol: FunctionSymbol, mod: ModuleSymbols) -> Dict[str, _Ref]:
        env: Dict[str, _Ref] = {}
        if symbol.cls is not None:
            env["self"] = _InstanceRef(symbol.cls)
        args = symbol.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            annotated = Project._annotation_name(arg.annotation)
            if annotated is None:
                continue
            resolved = self.project.resolve_name(mod, annotated)
            if resolved is not None and resolved in self.project.classes:
                env[arg.arg] = _InstanceRef(resolved)
        # Flow-insensitive local binding collection; two passes so chained
        # assignments (``a = C(); b = a.method``) settle.
        for _ in range(2):
            for node in ast.walk(symbol.node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if not names:
                    continue
                ref = self._resolve_value(value, mod, symbol, env)
                if ref is None:
                    continue
                bound = self._as_binding(ref)
                if bound is not None:
                    for name in names:
                        env[name] = bound
        return env

    @staticmethod
    def _as_binding(ref: _Ref) -> Optional[_Ref]:
        """What a local variable assigned this value should resolve to."""
        if isinstance(ref, (_InstanceRef, _FuncRef, _ClassRef, _ClassSetRef, _ModuleRef)):
            return ref
        return None

    # -- expression resolution ---------------------------------------------

    def _resolve_value(
        self,
        expr: ast.expr,
        mod: ModuleSymbols,
        symbol: Optional[FunctionSymbol],
        env: Dict[str, _Ref],
    ) -> Optional[_Ref]:
        if isinstance(expr, ast.Name):
            return self._resolve_name_ref(expr.id, mod, env)
        if isinstance(expr, ast.Attribute):
            base = self._resolve_value(expr.value, mod, symbol, env)
            return self._resolve_attr(base, expr.attr)
        if isinstance(expr, ast.Call):
            callee = self._resolve_value(expr.func, mod, symbol, env)
            if isinstance(callee, _ExternalRef) and callee.dotted == "super":
                if symbol is not None and symbol.cls is not None:
                    return _SuperRef(symbol.cls)
                return None
            if isinstance(callee, _ClassRef):
                return _InstanceRef(callee.qualname)
            if isinstance(callee, _FuncRef):
                return self._return_ref(callee.qualname)
            return None
        if isinstance(expr, ast.Subscript):
            base = self._resolve_value(expr.value, mod, symbol, env)
            if isinstance(base, _ClassSetRef):
                return base
            return None
        return None

    def _resolve_name_ref(self, name: str, mod: ModuleSymbols, env: Dict[str, _Ref]) -> Optional[_Ref]:
        if name in env:
            return env[name]
        if name in mod.functions:
            return _FuncRef(mod.functions[name])
        if name in mod.classes:
            return _ClassRef(mod.classes[name])
        registry = f"{mod.name}.{name}"
        if registry in self.project.registered_classes:
            return _ClassSetRef(tuple(sorted(self.project.registered_classes[registry])))
        if name in mod.imports:
            return self._import_ref(mod.imports[name])
        if name in _BUILTINS:
            return _ExternalRef(name)
        return None

    def _import_ref(self, dotted: str) -> _Ref:
        canonical = self.project._canonicalize(dotted)
        if canonical is None:
            return _ExternalRef(dotted)
        if canonical in self.project.modules:
            return _ModuleRef(canonical)
        if canonical in self.project.classes:
            return _ClassRef(canonical)
        return _FuncRef(canonical)

    def _resolve_attr(self, base: Optional[_Ref], attr: str) -> Optional[_Ref]:
        if base is None:
            return None
        if isinstance(base, _ExternalRef):
            return _ExternalRef(f"{base.dotted}.{attr}")
        if isinstance(base, _ModuleRef):
            target = self.project.modules.get(base.name)
            if target is None:  # pragma: no cover - module names always indexed
                return None
            if attr in target.functions:
                return _FuncRef(target.functions[attr])
            if attr in target.classes:
                return _ClassRef(target.classes[attr])
            registry = f"{base.name}.{attr}"
            if registry in self.project.registered_classes:
                return _ClassSetRef(tuple(sorted(self.project.registered_classes[registry])))
            if f"{base.name}.{attr}" in self.project.modules:
                return _ModuleRef(f"{base.name}.{attr}")
            if attr in target.imports:
                return self._import_ref(target.imports[attr])
            return None
        if isinstance(base, _InstanceRef):
            method = self.project.lookup_method(base.qualname, attr)
            if method is not None:
                return _FuncRef(method, virtual=True)
            attr_type = self.project.lookup_attr_type(base.qualname, attr)
            if attr_type is not None:
                return _InstanceRef(attr_type)
            return None
        if isinstance(base, _ClassRef):
            method = self.project.lookup_method(base.qualname, attr)
            if method is not None:
                return _FuncRef(method, virtual=False)
            return None
        if isinstance(base, _SuperRef):
            cls = self.project.classes.get(base.qualname)
            if cls is not None:
                for parent in cls.bases:
                    method = self.project.lookup_method(parent, attr)
                    if method is not None:
                        return _FuncRef(method, virtual=False)
            return None
        return None

    def _return_ref(self, qualname: str) -> Optional[_Ref]:
        """Instance type implied by a project function's return annotation."""
        symbol = self.project.functions.get(qualname)
        if symbol is None:
            return None
        annotated = Project._annotation_name(symbol.node.returns)
        if annotated is None:
            return None
        resolved = self.project.resolve_name(self.project.modules[symbol.module], annotated)
        if resolved is not None and resolved in self.project.classes:
            return _InstanceRef(resolved)
        return None

    # -- call-site resolution ----------------------------------------------

    def _expand_virtual(self, ref: _FuncRef) -> Tuple[str, ...]:
        targets = {ref.qualname}
        if ref.virtual:
            symbol = self.project.functions.get(ref.qualname)
            if symbol is not None and symbol.cls is not None:
                name = symbol.name
                for sub in self.project.subclasses(symbol.cls):
                    override = self.project.classes[sub].methods.get(name)
                    if override is not None:
                        targets.add(override)
        return tuple(sorted(targets))

    def _constructor_targets(self, qualnames: Sequence[str]) -> Tuple[str, ...]:
        targets: Set[str] = set()
        for qual in qualnames:
            init = self.project.lookup_method(qual, "__init__")
            if init is not None:
                targets.add(init)
        return tuple(sorted(targets))

    def _resolve_call_site(
        self,
        caller: str,
        mod: ModuleSymbols,
        symbol: Optional[FunctionSymbol],
        env: Dict[str, _Ref],
        node: ast.Call,
        facts: _FunctionFacts,
    ) -> None:
        ref = self._resolve_value(node.func, mod, symbol, env)
        targets: Tuple[str, ...] = ()
        external: Optional[str] = None
        if isinstance(ref, _FuncRef):
            targets = self._expand_virtual(ref)
        elif isinstance(ref, _ClassRef):
            targets = self._constructor_targets([ref.qualname])
        elif isinstance(ref, _ClassSetRef):
            targets = self._constructor_targets(ref.qualnames)
        elif isinstance(ref, _ExternalRef):
            external = ref.dotted
        elif ref is None:
            self.unresolved += 1
        site = CallSite(
            caller=caller,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            targets=targets,
            external=external,
        )
        if targets or external is not None:
            facts.sites.append(site)
            facts.by_node[id(node)] = site

    def _resolve_with_items(
        self,
        caller: str,
        mod: ModuleSymbols,
        symbol: Optional[FunctionSymbol],
        env: Dict[str, _Ref],
        node: Union[ast.With, ast.AsyncWith],
        facts: _FunctionFacts,
    ) -> None:
        """Edges from a ``with`` statement into its context managers' hooks.

        The sites are keyed by line only, not by node: ``by_node`` keeps
        mapping the item's own ``ast.Call`` to the call it makes.
        """
        hooks = ("__aenter__", "__aexit__") if isinstance(node, ast.AsyncWith) else ("__enter__", "__exit__")
        for item in node.items:
            ref = self._resolve_value(item.context_expr, mod, symbol, env)
            if not isinstance(ref, _InstanceRef):
                continue
            targets: Set[str] = set()
            for hook in hooks:
                method = self.project.lookup_method(ref.qualname, hook)
                if method is not None:
                    targets.update(self._expand_virtual(_FuncRef(method, virtual=True)))
            if targets:
                facts.sites.append(
                    CallSite(
                        caller=caller,
                        lineno=getattr(item.context_expr, "lineno", node.lineno),
                        col=getattr(item.context_expr, "col_offset", 0),
                        targets=tuple(sorted(targets)),
                    )
                )


def build_call_graph(project: Project) -> CallGraph:
    """Construct the :class:`CallGraph` for *project*."""
    return CallGraph(project)
