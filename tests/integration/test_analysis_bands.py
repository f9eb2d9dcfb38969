"""Tolerance bands: the committed paper-scale CSVs against the analysis.

Each figure that overlays the closed-form analysis on the two-phase
strategy is checked regime by regime, as ``2Phases / Analysis − 1`` in
percent, over the committed ``results/<fig>_paper.csv`` (written at
``--seed 2014``).  The bands are THEORY.md §5's table: the range measured
on those CSVs, widened by 0.5 percentage points on each side for a range
and by 1 point around a single point.  The test runs no simulation; a
regenerated CSV that drifts out of its band fails here.
"""

import csv
import functools
import math
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parents[2] / "results"

INF = math.inf

#: (figure, regime, selector over (x, x_label), lowest %, highest %).
BANDS = [
    ("fig04", "p in 10..300", lambda x, label: True, -2.2, 2.4),
    ("fig05", "p >= 50", lambda x, label: x >= 50, -1.08, 0.43),
    ("fig05", "p = 10", lambda x, label: x == 10, -8.2, -6.2),
    ("fig06", "beta >= 4", lambda x, label: x >= 4, -2.4, 0.4),
    ("fig06", "beta <= 3", lambda x, label: x <= 3, -INF, -7.9),
    ("fig07", "h in 0..99", lambda x, label: True, -2.5, 0.0),
    ("fig08", "unif and set", lambda x, label: not label.startswith("dyn."), -1.6, 0.0),
    ("fig08", "dyn.5", lambda x, label: label == "dyn.5", -5.5, -3.5),
    ("fig08", "dyn.20", lambda x, label: label == "dyn.20", -10.8, -8.8),
    ("fig09", "p >= 50", lambda x, label: x >= 50, -0.51, 0.90),
    ("fig09", "p = 10", lambda x, label: x == 10, 1.0, 3.0),
    ("fig10", "p >= 50", lambda x, label: x >= 50, -0.60, 0.73),
    ("fig10", "p = 10", lambda x, label: x == 10, 2.7, 4.7),
    ("fig11", "beta in [2.5, 6]", lambda x, label: 2.5 <= x <= 6, -0.86, 0.68),
    ("fig11", "beta = 0.5", lambda x, label: x == 0.5, -12.4, -10.4),
    ("fig11", "beta = 10", lambda x, label: x == 10, -8.1, -6.1),
]


@functools.lru_cache(maxsize=None)
def gaps(figure):
    """``{(x, x_label): 100 * (2Phases / Analysis - 1)}`` of one paper CSV."""
    means = {}
    with open(RESULTS / f"{figure}_paper.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            means.setdefault(row["series"], {})[(float(row["x"]), row["x_label"])] = float(row["mean"])
    (two_phase,) = [name for name in means if name.endswith("2Phases")]
    analysis = means["Analysis"]
    return {
        point: 100.0 * (value / analysis[point] - 1.0)
        for point, value in means[two_phase].items()
        if point in analysis
    }


@pytest.mark.parametrize(
    "figure,regime,select,lo,hi", BANDS, ids=[f"{band[0]}-{band[1]}" for band in BANDS]
)
def test_two_phase_tracks_analysis_within_band(figure, regime, select, lo, hi):
    selected = {point: gap for point, gap in gaps(figure).items() if select(*point)}
    assert selected, f"{figure}: no point in regime {regime}"
    outside = {point: round(gap, 3) for point, gap in selected.items() if not lo <= gap <= hi}
    assert not outside, f"{figure} {regime}: outside [{lo}, {hi}]%: {outside}"


def test_every_overlaid_paper_figure_has_bands():
    assert sorted({band[0] for band in BANDS}) == [
        "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
    ]
    assert len(gaps("fig08")) == 6 and len(gaps("fig06")) == 31 and len(gaps("fig10")) == 7
