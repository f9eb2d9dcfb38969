"""Core machinery of the :mod:`repro.lint` static-analysis framework.

``repro-analyze check`` parses every Python file under the given paths into an
:class:`ast.Module`, wraps each in a :class:`ModuleInfo` (which also carries
the module's dotted name and its ``# repro: noqa`` suppressions), and runs a
set of :class:`Rule` objects over the collection.  Rules yield structured
:class:`Finding` objects carrying the rule id, severity, position and
message; suppressed findings are dropped before reporting.

Two rule granularities are supported: :meth:`Rule.check_module` runs once
per file (most rules), while :meth:`Rule.check_package` runs once over the
whole module set and is used for cross-file contracts such as the strategy
registry (R-REGISTRY).

Suppression syntax, modelled on flake8's ``noqa`` but namespaced so the two
tools cannot collide::

    risky_line()  # repro: noqa[A-TAINT]    suppress one rule on this line
    risky_line()  # repro: noqa[A-TAINT,R-RNG]
    risky_line()  # repro: noqa             suppress every rule on this line
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "LintError",
    "ModuleInfo",
    "Rule",
    "Severity",
    "collect_modules",
    "dotted_name",
    "parse_noqa",
    "run_lint",
]

#: Marker meaning "every rule is suppressed on this line".
_ALL_RULES = frozenset({"*"})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_\-, ]+)\])?", re.IGNORECASE
)


class Severity:
    """Finding severities, ordered from advisory to blocking."""

    WARNING = "warning"
    ERROR = "error"


class LintError(RuntimeError):
    """Raised when a target file cannot be read or parsed."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source position."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (the JSON reporter's schema)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human-readable representation (``path:line:col: ...``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.severity} {self.rule_id} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed module plus the metadata rules need to scope themselves."""

    path: Path
    name: str
    tree: ast.Module
    source: str
    noqa: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def name_parts(self) -> Tuple[str, ...]:
        """The dotted name split on dots (``("repro", "utils", "rng")``)."""
        return tuple(self.name.split("."))

    def in_package(self, *prefixes: str) -> bool:
        """True if the module's dotted name starts with any given prefix."""
        return any(
            self.name == prefix or self.name.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`, :attr:`severity` and :attr:`description`, and
    override :meth:`check_module` (per-file rules) and/or
    :meth:`check_package` (cross-file rules).  Both default to yielding
    nothing so a rule only implements the granularity it needs.
    """

    id: str = "R-ABSTRACT"
    severity: str = Severity.ERROR
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for a single module."""
        return iter(())

    def check_package(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        """Yield findings that depend on the whole module set."""
        return iter(())

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` for *node* inside *module*."""
        return Finding(
            rule_id=self.id,
            severity=self.severity,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def parse_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line.

    A blanket ``# repro: noqa`` maps to the ``{"*"}`` sentinel.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = _ALL_RULES
        else:
            ids = frozenset(r.strip().upper() for r in rules.split(",") if r.strip())
            if ids:
                suppressions[lineno] = suppressions.get(lineno, frozenset()) | ids
    return suppressions


def dotted_name(path: Path, root: Optional[Path] = None) -> str:
    """Infer a module's dotted name from its file path.

    If a path component is literally ``repro`` the name is rooted there, so
    ``src/repro/utils/rng.py`` and a test fixture laid out as
    ``fixtures/bad_rng/repro/utils/rng.py`` both map to ``repro.utils.rng``
    — which is what lets scoped rules fire on fixture trees that mirror the
    package layout.  Otherwise the name is the path relative to *root*.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    elif root is not None:
        try:
            rel = path.with_suffix("").relative_to(root)
        except ValueError:
            rel = Path(parts[-1]) if parts else Path("module")
        parts = [p for p in rel.parts if p != "__init__"]
    if not parts:
        return "module"
    return ".".join(parts)


def _load_module(path: Path, root: Optional[Path]) -> ModuleInfo:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    return ModuleInfo(
        path=path,
        name=dotted_name(path, root),
        tree=tree,
        source=source,
        noqa=parse_noqa(source),
    )


def collect_modules(paths: Iterable[Path]) -> List[ModuleInfo]:
    """Parse every ``.py`` file under *paths* (files or directories).

    Directories are walked recursively in sorted order so runs are
    deterministic; unreadable or syntactically invalid files raise
    :class:`LintError` (a linter that silently skips files is worse than no
    linter).
    """
    modules: List[ModuleInfo] = []
    for raw in paths:
        base = Path(raw)
        if base.is_dir():
            files = sorted(p for p in base.rglob("*.py") if p.is_file())
            root = base
        elif base.is_file():
            files = [base]
            root = base.parent
        else:
            raise LintError(f"no such file or directory: {base}")
        for file in files:
            modules.append(_load_module(file, root))
    return modules


def _suppressed(finding: Finding, module: ModuleInfo) -> bool:
    ids = module.noqa.get(finding.line)
    if ids is None:
        return False
    return "*" in ids or finding.rule_id.upper() in ids


def run_lint(
    modules: Sequence[ModuleInfo], rules: Sequence[Rule]
) -> List[Finding]:
    """Run *rules* over *modules* and return unsuppressed findings, sorted."""
    by_path = {str(m.path): m for m in modules}
    findings: List[Finding] = []
    for rule in rules:
        for module in modules:
            findings.extend(rule.check_module(module))
        findings.extend(rule.check_package(modules))
    kept = [
        f
        for f in findings
        if f.path not in by_path or not _suppressed(f, by_path[f.path])
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept
