"""repro — dynamic scheduling strategies for matrix multiplication on
heterogeneous platforms.

A from-scratch, production-quality reproduction of

    Olivier Beaumont, Loris Marchal.
    "Analysis of Dynamic Scheduling Strategies for Matrix Multiplication
    on Heterogeneous Platforms", HPDC 2014.

Quickstart::

    import repro

    platform = repro.Platform(repro.uniform_speeds(20, 10, 100, rng=0))
    strategy = repro.OuterTwoPhase(100)           # beta auto-tuned from the analysis
    result = repro.simulate(strategy, platform, rng=1)
    lb = repro.outer_lower_bound(platform.relative_speeds, 100)
    print(result.normalized(lb))                  # paper's y-axis value

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every figure.
"""

from repro.core.analysis import (
    agnostic_beta,
    lower_bound,
    matrix_lower_bound,
    matrix_total_ratio,
    optimal_matrix_beta,
    optimal_outer_beta,
    outer_lower_bound,
    outer_total_ratio,
)
from repro.core.strategies import (
    Assignment,
    MatrixDynamic,
    MatrixRandom,
    MatrixSorted,
    MatrixTwoPhase,
    OuterDynamic,
    OuterRandom,
    OuterSorted,
    OuterTwoPhase,
    Strategy,
    make_strategy,
    strategies_for_kernel,
    strategy_names,
)
from repro.platform import (
    DynamicSpeedModel,
    Platform,
    Processor,
    StaticSpeedModel,
    heterogeneity_speeds,
    make_scenario,
    set_speeds,
    uniform_speeds,
)
from repro.faults import (
    FaultSchedule,
    HeartbeatTimeout,
    ReassignLost,
    RecoveryPolicy,
    ReplicateTail,
)
from repro.simulator import FaultStats, SimulationResult, Trace, simulate

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # platform
    "Platform",
    "Processor",
    "StaticSpeedModel",
    "DynamicSpeedModel",
    "uniform_speeds",
    "heterogeneity_speeds",
    "set_speeds",
    "make_scenario",
    # simulator
    "simulate",
    "SimulationResult",
    "Trace",
    # faults
    "FaultSchedule",
    "FaultStats",
    "RecoveryPolicy",
    "ReassignLost",
    "HeartbeatTimeout",
    "ReplicateTail",
    # strategies
    "Strategy",
    "Assignment",
    "OuterRandom",
    "OuterSorted",
    "OuterDynamic",
    "OuterTwoPhase",
    "MatrixRandom",
    "MatrixSorted",
    "MatrixDynamic",
    "MatrixTwoPhase",
    "make_strategy",
    "strategy_names",
    "strategies_for_kernel",
    # analysis
    "outer_lower_bound",
    "matrix_lower_bound",
    "lower_bound",
    "outer_total_ratio",
    "matrix_total_ratio",
    "optimal_outer_beta",
    "optimal_matrix_beta",
    "agnostic_beta",
]
