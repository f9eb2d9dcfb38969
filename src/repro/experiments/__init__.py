"""Experiment harness: regenerate every figure of the paper's evaluation.

* :mod:`~repro.experiments.config` — figure-data containers and scale
  presets (``"paper"`` reproduces the paper's parameters, ``"ci"`` is a
  minutes-scale smoke configuration with the same shape);
* :mod:`~repro.experiments.runner` — repetition/aggregation helpers around
  the simulator;
* :mod:`~repro.experiments.figures` — one generator per paper figure
  (``fig01`` ... ``fig11``, plus ``sec36`` for the Section-3.6 study);
* :mod:`~repro.experiments.parallel` — picklable cell specs and the
  ``run_cells`` batch entry point;
* :mod:`~repro.experiments.external` — planning and claim-based draining
  behind ``run --workers N`` and ``--workers-external``;
* :mod:`~repro.experiments.bench` — the ``repro-bench`` persistent
  benchmark harness (fixed suite, JSON records, regression comparison);
* :mod:`~repro.experiments.io` — CSV/terminal rendering of figure data;
* :mod:`~repro.experiments.cli` — the ``repro-experiments`` entry point.
"""

from repro.experiments.config import FigureData, Series
from repro.experiments.figures import FIGURES, generate
from repro.experiments.io import figure_to_rows, render_figure, write_csv
from repro.experiments.runner import average_normalized_comm, mean_analysis_ratio

__all__ = [
    "FigureData",
    "Series",
    "FIGURES",
    "generate",
    "write_csv",
    "render_figure",
    "figure_to_rows",
    "average_normalized_comm",
    "mean_analysis_ratio",
]
