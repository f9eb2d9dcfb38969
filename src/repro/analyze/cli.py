"""Command-line entry point: ``repro-analyze`` / ``python -m repro.analyze``.

Three subcommands:

* ``check`` — run every check, the per-file R-* rules and the
  interprocedural A-* checks, over one parse of the tree, optionally
  against a committed baseline (known findings suppressed, stale entries
  fail);
* ``graph`` — summarize the project call graph, or list the callers /
  callees of one function;
* ``explain KEY`` — re-run the analysis and print the full root-to-source
  call chain for the finding with that key.

Exit codes follow grep-like tools, so CI can tell violations from a broken
checker: 0 clean, 1 findings (or stale baseline entries), 2 usage or I/O
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analyze.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analyze.checks import ALL_CHECKS, build_model, run_analysis
from repro.analyze.findings import AnalysisFinding
from repro.lint.framework import LintError, ModuleInfo, collect_modules
from repro.lint.reporters import render_json, render_text

__all__ = ["build_parser", "main"]

_DEFAULT_TREE = "src/repro"
_DEFAULT_API_DOC = "docs/API.md"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-analyze`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "The static checker of the repro scheduler codebase: per-file "
            "rules (RNG discipline, validation-at-boundary, registry and "
            "__all__ contracts) plus call-graph construction and "
            "interprocedural taint, lock-discipline, strategy-purity and "
            "API-drift checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the check set")
    _add_tree_args(check)
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    check.add_argument(
        "--select",
        action="append",
        metavar="CHECK-ID",
        help="run only these check ids (repeatable)",
    )
    check.add_argument(
        "--ignore",
        action="append",
        metavar="CHECK-ID",
        help="skip these check ids (repeatable)",
    )
    check.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline file of grandfathered finding keys; known findings "
        "are suppressed, stale entries fail the run",
    )
    check.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write the current findings' keys as a new baseline and exit 0",
    )
    check.add_argument(
        "--api-doc",
        metavar="PATH",
        default=None,
        help=f"API reference for the drift check (default: {_DEFAULT_API_DOC} "
        f"when it exists and every path lies inside {_DEFAULT_TREE})",
    )
    check.add_argument(
        "--list-checks",
        action="store_true",
        help="print the check catalogue and exit",
    )

    graph = sub.add_parser("graph", help="summarize the project call graph")
    _add_tree_args(graph)
    graph.add_argument(
        "--callers",
        metavar="QUALNAME",
        help="list direct callers of a function (dotted qualname)",
    )
    graph.add_argument(
        "--callees",
        metavar="QUALNAME",
        help="list direct callees of a function (dotted qualname)",
    )

    explain = sub.add_parser(
        "explain", help="print the full call chain behind one finding"
    )
    explain.add_argument("key", help="finding key, e.g. A-TAINT:repro.x.f:time.time")
    _add_tree_args(explain)
    explain.add_argument(
        "--api-doc",
        metavar="PATH",
        default=None,
        help="API reference for the drift check",
    )
    return parser


def _add_tree_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=[_DEFAULT_TREE],
        help=f"files or directories to analyze (default: {_DEFAULT_TREE})",
    )


def _list_checks() -> str:
    lines = []
    for cls in ALL_CHECKS:
        lines.append(f"{cls.id:14s} [{cls.severity}] {cls.description}")
    return "\n".join(lines)


def _collect(paths: Sequence[str]) -> List[ModuleInfo]:
    return collect_modules([Path(p) for p in paths])


def _resolve_api_doc(flag: Optional[str], paths: Sequence[str]) -> Optional[str]:
    """The ``--api-doc`` value, else docs/API.md for a check of the package.

    docs/API.md documents ``src/repro`` only, so the default applies only
    when every checked path lies inside that tree; any other tree (a
    fixture, a copy) would report its exports as missing from it.
    """
    if flag is not None:
        return flag
    tree = Path(_DEFAULT_TREE).resolve()
    default = Path(_DEFAULT_API_DOC)
    inside = all(
        path == tree or tree in path.parents for path in (Path(p).resolve() for p in paths)
    )
    return str(default) if inside and default.exists() else None


def _cmd_check(args: argparse.Namespace) -> int:
    if args.list_checks:
        print(_list_checks())
        return 0
    try:
        modules = _collect(args.paths)
        findings = run_analysis(
            modules,
            select=args.select,
            ignore=args.ignore,
            api_doc=_resolve_api_doc(args.api_doc, args.paths),
        )
    except (LintError, ValueError) as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        keys = save_baseline(Path(args.write_baseline), findings)
        print(f"repro-analyze: wrote {len(keys)} key(s) to {args.write_baseline}")
        return 0

    stale: Sequence[str] = ()
    if args.baseline:
        try:
            keys = load_baseline(Path(args.baseline))
        except BaselineError as exc:
            print(f"repro-analyze: {exc}", file=sys.stderr)
            return 2
        split = apply_baseline(findings, keys)
        findings = list(split.fresh)
        stale = split.stale

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    for key in stale:
        print(
            f"repro-analyze: stale baseline entry {key} — the finding no "
            f"longer fires; delete it from {args.baseline}",
            file=sys.stderr,
        )
    return 1 if findings or stale else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    try:
        modules = _collect(args.paths)
    except LintError as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2
    model = build_model(modules)
    if args.callers or args.callees:
        qual = args.callers or args.callees
        table = model.graph.callers if args.callers else model.graph.edges
        if qual not in model.project.functions:
            print(f"repro-analyze: unknown function {qual}", file=sys.stderr)
            return 2
        for name, lineno in sorted(set(table.get(qual, []))):
            print(f"{name} (line {lineno})")
        return 0
    edge_count = sum(len(v) for v in model.graph.edges.values())
    print(f"modules:    {len(model.project.modules)}")
    print(f"functions:  {len(model.project.functions)}")
    print(f"classes:    {len(model.project.classes)}")
    print(f"call edges: {edge_count}")
    print(f"unresolved: {model.graph.unresolved}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    try:
        modules = _collect(args.paths)
        findings = run_analysis(modules, api_doc=_resolve_api_doc(args.api_doc, args.paths))
    except LintError as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        if isinstance(finding, AnalysisFinding) and finding.key == args.key:
            print(finding.render_chain())
            return 0
    print(f"repro-analyze: no finding with key {args.key}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the analyzer CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "graph":
        return _cmd_graph(args)
    return _cmd_explain(args)
