"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple, Union

__all__ = [
    "FunctionNode",
    "attr_chain",
    "iter_functions",
    "param_names",
    "public_toplevel_names",
    "toplevel_all",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def attr_chain(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as dotted text.

    ``np.random.default_rng`` becomes ``"np.random.default_rng"``; chains
    involving calls or subscripts (``foo().bar``) return ``None`` since the
    rules here only match plain module-attribute access.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[FunctionNode, Optional[ast.ClassDef]]]:
    """Yield every function/method with its enclosing class (or ``None``).

    Nested functions are attributed to the class of their enclosing method,
    which is the right granularity for boundary rules.
    """

    def walk(node: ast.AST, owner: Optional[ast.ClassDef]) -> Iterator[
        Tuple[FunctionNode, Optional[ast.ClassDef]]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                yield from walk(child, owner)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            else:
                yield from walk(child, owner)

    yield from walk(tree, None)


def param_names(func: FunctionNode) -> List[str]:
    """All parameter names of *func*, positional, keyword-only and starred."""
    args = func.args
    params = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params


def toplevel_all(tree: ast.Module) -> Optional[List[str]]:
    """The module's literal ``__all__`` list, or ``None`` if absent/dynamic."""
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        value = node.value
        assert value is not None
        try:
            names = ast.literal_eval(value)
        except ValueError:
            return None
        if isinstance(names, (list, tuple)) and all(
            isinstance(n, str) for n in names
        ):
            return list(names)
        return None
    return None


def public_toplevel_names(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """Publicly-named top-level defs: ``(name, node)`` pairs.

    Covers classes, functions and simple constant assignments; imports are
    excluded (re-exports are judged by R-ALL-EXISTS, not R-ALL-PUBLIC).
    """
    names: List[Tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                names.append((node.name, node))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and not target.id.startswith("_")
                    and target.id != "__all__"
                ):
                    names.append((target.id, node))
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                names.append((target.id, node))
    return names
