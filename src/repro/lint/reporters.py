"""Finding reporters: plain text for humans, JSON for CI tooling.

The JSON document is versioned so CI consumers can detect schema changes::

    {
      "version": 1,
      "counts": {"error": 2, "warning": 1},
      "findings": [
        {"rule": "R-RNG", "severity": "error", "path": "...",
         "line": 10, "col": 4, "message": "..."},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from repro.lint.framework import Finding

__all__ = ["JSON_SCHEMA_VERSION", "render_json", "render_text", "summary_counts"]

JSON_SCHEMA_VERSION = 1


def summary_counts(findings: Sequence[Finding]) -> Dict[str, int]:
    """Number of findings per severity (only severities that occur)."""
    return dict(Counter(f.severity for f in findings))


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a trailing summary line."""
    lines: List[str] = [f.render() for f in findings]
    counts = summary_counts(findings)
    if findings:
        summary = ", ".join(f"{n} {sev}(s)" for sev, n in sorted(counts.items()))
        lines.append(f"repro-analyze: {summary}")
    else:
        lines.append("repro-analyze: clean")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """The versioned JSON report document."""
    doc = {
        "version": JSON_SCHEMA_VERSION,
        "counts": summary_counts(findings),
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
