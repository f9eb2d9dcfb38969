"""Markdown summary of a results directory.

After ``repro-experiments run ... --outdir results`` has produced tidy
CSVs, :func:`summarize_results` compiles a compact markdown report: one
section per figure and scale, with per-series minima/maxima and the
figure's key comparisons — a quick artifact to attach to a reproduction
log (EXPERIMENTS.md is the curated version of the same information).
"""

from __future__ import annotations

import glob
import os
import re
from typing import List, Optional

from repro.experiments.config import FigureData
from repro.experiments.io import read_csv

__all__ = ["summarize_results", "write_report"]

_NAME_RE = re.compile(r"(?P<fid>[a-z0-9]+)_(?P<scale>paper|medium|ci)\.csv$")


def _series_line(label: str, fig: FigureData) -> str:
    s = fig.series[label]
    return f"| {label} | {min(s.mean):.3f} | {max(s.mean):.3f} | {len(s)} |"


def summarize_results(directory: str) -> str:
    """Build the markdown report for every figure CSV under *directory*."""
    paths = sorted(glob.glob(os.path.join(directory, "*.csv")))
    entries = []
    for path in paths:
        match = _NAME_RE.search(os.path.basename(path))
        if not match:
            continue
        try:
            fig = read_csv(path)
        except ValueError:
            continue
        entries.append((match.group("fid"), match.group("scale"), fig))
    if not entries:
        raise ValueError(f"no figure CSVs found under {directory!r}")

    lines: List[str] = ["# Results summary", ""]
    order = {"paper": 0, "medium": 1, "ci": 2}
    entries.sort(key=lambda e: (e[0], order.get(e[1], 9)))
    for fid, scale, fig in entries:
        lines.append(f"## {fid} ({scale})")
        lines.append("")
        lines.append("| series | min | max | points |")
        lines.append("|---|---|---|---|")
        for label in fig.series:
            lines.append(_series_line(label, fig))
        best = _headline(fig)
        if best:
            lines.append("")
            lines.append(best)
        lines.append("")
    return "\n".join(lines)


def _headline(fig: FigureData) -> Optional[str]:
    """One-sentence takeaway when the figure has a recognizable shape.

    The first ``*2Phases`` and ``Random*`` series in CSV order are compared.
    """
    two_phase = next((l for l in fig.series if l.endswith("2Phases")), None)
    random_label = next((l for l in fig.series if l.startswith("Random")), None)
    if two_phase and random_label:
        tp = fig.series[two_phase]
        rd = fig.series[random_label]
        common = sorted(set(tp.x) & set(rd.x))
        if common:
            x = common[-1]
            tp_v = tp.mean[tp.x.index(x)]
            rd_v = rd.mean[rd.x.index(x)]
            if tp_v > 0:
                return (
                    f"At the last common point (x = {x:g}): {two_phase} = {tp_v:.3f}, "
                    f"{random_label} = {rd_v:.3f} ({rd_v / tp_v:.2f}x)."
                )
    return None


def write_report(directory: str, path: str) -> str:
    """Write the report for *directory* to *path*; returns the path."""
    text = summarize_results(directory)
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path
