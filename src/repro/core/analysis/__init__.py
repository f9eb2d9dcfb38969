"""ODE-based theoretical analysis of the dynamic strategies.

Implements, with documented corrections of the paper's typographical slips
(see DESIGN.md):

* :mod:`~repro.core.analysis.ode` — the continuous-process primitives:
  unprocessed-task fraction ``g_k``, stolen-task count ``h_k``, time-to-
  knowledge ``t_k`` (Lemmas 1, 2, 7, 8);
* :mod:`~repro.core.analysis.lower_bounds` — the communication lower bounds
  used to normalize every figure;
* :mod:`~repro.core.analysis.outer` — phase volumes, the Theorem-6 total
  ratio, and the optimal β for the outer product;
* :mod:`~repro.core.analysis.matrix` — the Section-4.2 analogues for matmul;
* :mod:`~repro.core.analysis.beta` — the speed-agnostic (homogeneous) β of
  Section 3.6.
"""

from repro.core.analysis.beta import agnostic_beta, beta_deviation
from repro.core.analysis.lower_bounds import lower_bound, matrix_lower_bound, outer_lower_bound
from repro.core.analysis.matrix import (
    matrix_phase1_ratio,
    matrix_phase2_ratio,
    matrix_total_ratio,
    optimal_matrix_beta,
)
from repro.core.analysis.ode import (
    alpha_of,
    stolen_tasks,
    switch_fraction,
    time_to_knowledge,
    unprocessed_fraction,
)
from repro.core.analysis.outer import (
    optimal_outer_beta,
    outer_phase1_ratio,
    outer_phase2_ratio,
    outer_total_ratio,
)
from repro.core.analysis.random_baseline import (
    exact_random_matrix_volume,
    exact_random_outer_volume,
    expected_random_matrix_volume,
    expected_random_outer_volume,
)

__all__ = [
    "alpha_of",
    "unprocessed_fraction",
    "stolen_tasks",
    "time_to_knowledge",
    "switch_fraction",
    "lower_bound",
    "outer_lower_bound",
    "matrix_lower_bound",
    "outer_phase1_ratio",
    "outer_phase2_ratio",
    "outer_total_ratio",
    "optimal_outer_beta",
    "matrix_phase1_ratio",
    "matrix_phase2_ratio",
    "matrix_total_ratio",
    "optimal_matrix_beta",
    "agnostic_beta",
    "beta_deviation",
    "expected_random_outer_volume",
    "expected_random_matrix_volume",
    "exact_random_outer_volume",
    "exact_random_matrix_volume",
]
