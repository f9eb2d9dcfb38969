"""``repro-bench`` — a persistent benchmark harness for the simulator.

The figure sweeps are dominated by the simulation engine's hot loop, so a
perf regression there silently multiplies every experiment's runtime.  This
module pins down a small fixed suite of workloads (engine runs at the
paper's instance sizes, the event-queue and sampler micro-loops, and a
serial-vs-vectorized replicate sweep), times them with
:func:`repro.obs.profile.wall_time` and writes a schema-versioned JSON
record that can be committed next to the results it contextualizes.  With
``--profile`` each workload additionally records per-stage wall time
through a :class:`~repro.obs.profile.StageProfiler`.

Usage::

    repro-bench list
    repro-bench run --quick --repeats 3 --outdir results
    repro-bench run --suite scaling --json scaling.json
    repro-bench run --json bench-current.json
    repro-bench compare results/BENCH_old.json bench-current.json
    repro-bench compare old.json new.json --threshold 0.1 --warn-only

``compare`` exits non-zero when any shared workload's median regressed by
more than ``--threshold`` (default 20%), unless ``--warn-only`` — which is
how CI uses it: wall-clock on shared runners is noisy, so regressions warn
there and gate only on dedicated machines.

Timing records are only comparable on the same machine: every JSON embeds
the interpreter/numpy/CPU fingerprint so ``compare`` can warn when two
records come from different environments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_module
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.strategies.registry import make_strategy
from repro.experiments.parallel import StrategySpec, UniformPlatformSpec
from repro.experiments.runner import average_normalized_comm
from repro.obs.profile import StageProfiler, wall_time
from repro.platform.platform import Platform
from repro.platform.speeds import uniform_speeds
from repro.simulator.batch import fallback_reason
from repro.simulator.engine import simulate
from repro.simulator.events import EventQueue
from repro.taskpool.sample_set import SampleSet
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "SCHEMA",
    "SUITES",
    "Workload",
    "WorkloadFn",
    "build_parser",
    "build_suite",
    "compare_results",
    "main",
    "run_suite",
]

#: Schema tag embedded in every record; bump on incompatible layout changes.
SCHEMA = "repro-bench/1"

SUITES = ("default", "quick", "scaling")


#: A workload body: receives the top-level seed and a stage profiler (a
#: disabled one unless ``--profile``); must do the same deterministic amount
#: of work for a given seed.
WorkloadFn = Callable[[int, StageProfiler], object]


class Workload:
    """A named, timed unit of the benchmark suite.

    ``fn`` receives the top-level seed plus a
    :class:`~repro.obs.profile.StageProfiler` and must do the same
    deterministic amount of work for a given seed — repeats then measure
    timing noise, not workload variance.  Workloads wrap their coarse
    stages in ``prof.stage(...)`` blocks; the profiler is disabled (no
    clock reads) unless the harness runs with ``profile=True``.
    """

    __slots__ = ("name", "params", "fn")

    def __init__(self, name: str, params: Dict[str, Any], fn: WorkloadFn) -> None:
        self.name = name
        self.params = dict(params)
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workload({self.name!r}, params={self.params!r})"


# ---------------------------------------------------------------------------
# Workload factories
# ---------------------------------------------------------------------------


def _engine_workload(strategy_name: str, n: int, p: int) -> WorkloadFn:
    """Full simulation: *strategy_name* at size *n* on a p-worker platform."""

    def run(seed: int, prof: StageProfiler) -> object:
        with prof.stage("setup"):
            platform = Platform(uniform_speeds(p, 10, 100, rng=seed))
            strategy = make_strategy(strategy_name, n)
        with prof.stage("simulate"):
            return simulate(strategy, platform, rng=seed + 1)

    return run


def _faulty_engine_workload(strategy_name: str, n: int, p: int) -> WorkloadFn:
    """Fault-aware simulation: *strategy_name* under a drawn crash schedule."""

    def run(seed: int, prof: StageProfiler) -> object:
        from repro.faults.models import FaultSchedule

        with prof.stage("setup"):
            platform = Platform(uniform_speeds(p, 10, 100, rng=seed))
            nominal = n * n / float(platform.speeds.sum())
            schedule = FaultSchedule.draw(
                p,
                4.0 * nominal,
                rng=seed + 2,
                crash_rate=2.0 / nominal,
                mean_downtime=0.1 * nominal,
            )
            strategy = make_strategy(strategy_name, n, collect_ids=True)
        with prof.stage("simulate"):
            return simulate(strategy, platform, schedule=schedule, rng=seed + 1)

    return run


def _event_queue_workload(events: int) -> WorkloadFn:
    """Steady-state push/pop churn through the event heap."""

    def run(seed: int, prof: StageProfiler) -> object:
        with prof.stage("churn"):
            queue = EventQueue()
            for w in range(8):
                queue.push(float(w), w)
            for _ in range(events):
                t, w = queue.pop()
                queue.push(t + 1.0, w)
        return queue

    return run


def _drain_sample_set(seed: int, size: int) -> SampleSet:
    rng = as_generator(seed)
    s = SampleSet(size)
    while s:
        s.draw(rng)
    return s


def _sample_drain_workload(size: int) -> WorkloadFn:
    """Drain a full SampleSet one uniform draw at a time."""

    def run(seed: int, prof: StageProfiler) -> object:
        with prof.stage("drain"):
            return _drain_sample_set(seed, size)

    return run


def _engine_params(strategy: StrategySpec, vectorize: "bool | str") -> Dict[str, Any]:
    """BENCH-JSON engine metadata for a sweep workload.

    Resolves what engine the workload's replicates actually run on, so a
    ``vectorize="auto"`` scalar fallback is recorded in the committed
    record rather than silently skewing a comparison: ``engine`` is
    ``"vectorized"`` or ``"scalar"``, and ``vectorize_fallback`` names the
    reason (``"forced"`` for an explicit ``vectorize=False``, else a
    :func:`repro.simulator.batch.fallback_reason` string).
    """
    if vectorize is False:
        return {"engine": "scalar", "vectorize_fallback": "forced"}
    reason = fallback_reason(strategy())
    if reason is None:
        return {"engine": "vectorized"}
    return {"engine": "scalar", "vectorize_fallback": reason}


def _sweep_workload(
    strategy_name: str,
    n: int,
    p: int,
    reps: int,
    vectorize: "bool | str" = "auto",
) -> WorkloadFn:
    """Figure-style replicate sweep: *strategy_name* averaged over *reps*.

    *vectorize* pins the engine selection so the serial baseline stays a
    pure scalar-loop measurement (comparable with pre-batch records) while
    the vectorized workload measures the batch engine.
    """
    strategy = StrategySpec(strategy_name, n)
    platform_spec = UniformPlatformSpec(p)

    def run(seed: int, prof: StageProfiler) -> object:
        with prof.stage("sweep"):
            return average_normalized_comm(
                strategy,
                platform_spec,
                n,
                reps,
                seed=seed,
                vectorize=vectorize,
            )

    return run


def _beta_sweep_workload(
    strategy_name: str,
    n: int,
    p: int,
    reps: int,
    betas: "tuple[float, ...]",
    vectorize: "bool | str",
) -> WorkloadFn:
    """Figure-6/11-style β sweep: a two-phase strategy across a β grid.

    The sweep the paper's headline comparisons hinge on — one
    ``average_normalized_comm`` cell per β, all replicates on the engine
    *vectorize* selects, so the serial/vectorized workload pair measures
    the two-phase kernels end to end.
    """
    platform_spec = UniformPlatformSpec(p)

    def run(seed: int, prof: StageProfiler) -> object:
        out = []
        with prof.stage("sweep"):
            for beta in betas:
                out.append(
                    average_normalized_comm(
                        StrategySpec(strategy_name, n, beta=float(beta)),
                        platform_spec,
                        n,
                        reps,
                        seed=seed,
                        vectorize=vectorize,
                    )
                )
        return out

    return run


#: The lockstep kernel's scaling cells, ``(label, strategy, n)`` at
#: ``p = 100``, each timed at the replicate counts the figures run
#: (ci 2, medium 5, paper 10).
_LOCKSTEP_CELLS = (("outer", "DynamicOuter", 100), ("matrix", "DynamicMatrix", 40))
_LOCKSTEP_REPS = (2, 5, 10)


def _scaling_suite() -> List[Workload]:
    """The replicate-count scaling sweeps plus the two-phase β sweep.

    R ∈ {1, 4, 16, 64} × 2 engines for RandomMatrix; serial vs vectorized
    DynamicOuter (n = 100) and DynamicMatrix (n = 40) at p = 100 and
    R ∈ {2, 5, 10}, the lockstep kernel at figure replicate counts; and a
    serial vs vectorized DynamicMatrix2Phases β sweep (n = 12, p = 20,
    R = 256) — the cell the two-phase kernels' committed speedup is
    measured on.
    """
    n, p = 16, 50
    spec = StrategySpec("RandomMatrix", n)
    workloads: List[Workload] = []
    for reps in (1, 4, 16, 64):
        base = {"strategy": "RandomMatrix", "n": n, "p": p, "reps": reps}
        workloads.append(
            Workload(
                f"scaling_reps{reps:02d}_serial",
                {**base, "vectorize": False, **_engine_params(spec, False)},
                _sweep_workload("RandomMatrix", n, p, reps, vectorize=False),
            )
        )
        workloads.append(
            Workload(
                f"scaling_reps{reps:02d}_vectorized",
                {**base, "vectorize": True, **_engine_params(spec, True)},
                _sweep_workload("RandomMatrix", n, p, reps, vectorize=True),
            )
        )
    lk_p = 100
    for label, strategy_name, lk_n in _LOCKSTEP_CELLS:
        lk_spec = StrategySpec(strategy_name, lk_n)
        for reps in _LOCKSTEP_REPS:
            base = {"strategy": strategy_name, "n": lk_n, "p": lk_p, "reps": reps}
            for engine, vectorize in (("serial", False), ("vectorized", True)):
                workloads.append(
                    Workload(
                        f"lockstep_{label}_reps{reps:02d}_{engine}",
                        {**base, "vectorize": vectorize, **_engine_params(lk_spec, vectorize)},
                        _sweep_workload(strategy_name, lk_n, lk_p, reps, vectorize=vectorize),
                    )
                )
    # DynamicMatrix2Phases is the cell where vectorization pays most: the
    # scalar engine's per-event cost (cube marking, three n^2 block
    # caches) dwarfs the kernel's, and the static-speed phase-2 tail is
    # closed-form.  Low betas cross into phase 2 early, so the analytic
    # path dominates; higher betas spend longer in the RNG-bound phase-1
    # lockstep and pull the aggregate down.
    tp_n, tp_p, tp_reps = 12, 20, 256
    tp_betas = (0.5, 1.0, 1.5, 2.0)
    tp_spec = StrategySpec("DynamicMatrix2Phases", tp_n, beta=tp_betas[0])
    tp_base = {
        "strategy": "DynamicMatrix2Phases",
        "n": tp_n,
        "p": tp_p,
        "reps": tp_reps,
        "betas": list(tp_betas),
    }
    for engine, vectorize in (("serial", False), ("vectorized", True)):
        workloads.append(
            Workload(
                f"twophase_beta_sweep_{engine}",
                {**tp_base, "vectorize": vectorize, **_engine_params(tp_spec, vectorize)},
                _beta_sweep_workload(
                    "DynamicMatrix2Phases", tp_n, tp_p, tp_reps, tp_betas, vectorize
                ),
            )
        )
    return workloads


def build_suite(suite: str = "default") -> List[Workload]:
    """The fixed workload list for *suite*.

    The default suite exercises the engine at the paper's instance sizes;
    ``quick`` shrinks every workload to a few seconds total for CI smoke
    runs (the two share workload names so records remain comparable within
    one suite); ``scaling`` sweeps the replicate count R ∈ {1, 4, 16, 64}
    serial vs vectorized to chart how the batch engine amortizes, and
    times the lockstep kernel at the figures' replicate counts
    R ∈ {2, 5, 10}.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if suite == "scaling":
        return _scaling_suite()
    quick = suite == "quick"
    n_rand = 60 if quick else 100
    n_dyn = 150 if quick else 300
    n_mat = 20 if quick else 40
    events = 50_000 if quick else 200_000
    drain = 30_000 if quick else 100_000
    sweep_n = 20 if quick else 40
    sweep_p = 40 if quick else 100
    sweep_reps = 4 if quick else 8
    p = 50
    return [
        Workload(
            "engine_outer_random",
            {"strategy": "RandomOuter", "n": n_rand, "p": p},
            _engine_workload("RandomOuter", n_rand, p),
        ),
        Workload(
            "engine_outer_dynamic",
            {"strategy": "DynamicOuter", "n": n_dyn, "p": p},
            _engine_workload("DynamicOuter", n_dyn, p),
        ),
        Workload(
            "engine_matrix_dynamic",
            {"strategy": "DynamicMatrix", "n": n_mat, "p": p},
            _engine_workload("DynamicMatrix", n_mat, p),
        ),
        Workload(
            "engine_outer_faulty",
            {"strategy": "DynamicOuter", "n": n_rand, "p": p, "crashes_per_worker": 2},
            _faulty_engine_workload("DynamicOuter", n_rand, p),
        ),
        Workload(
            "event_queue_churn",
            {"events": events},
            _event_queue_workload(events),
        ),
        Workload(
            "sample_set_drain",
            {"size": drain},
            _sample_drain_workload(drain),
        ),
        Workload(
            "replicate_sweep_serial",
            {"strategy": "RandomMatrix", "n": sweep_n, "p": sweep_p, "reps": sweep_reps, "vectorize": False,
             **_engine_params(StrategySpec("RandomMatrix", sweep_n), False)},
            _sweep_workload("RandomMatrix", sweep_n, sweep_p, sweep_reps, vectorize=False),
        ),
        Workload(
            "replicate_sweep_vectorized",
            {"strategy": "RandomMatrix", "n": sweep_n, "p": sweep_p, "reps": sweep_reps, "vectorize": True,
             **_engine_params(StrategySpec("RandomMatrix", sweep_n), True)},
            _sweep_workload("RandomMatrix", sweep_n, sweep_p, sweep_reps, vectorize=True),
        ),
    ]


# ---------------------------------------------------------------------------
# Running and recording
# ---------------------------------------------------------------------------


def _machine_info() -> Dict[str, Any]:
    return {
        "platform": platform_module.platform(),
        "python": platform_module.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _derive_metrics(entries: Dict[str, Any]) -> Dict[str, Any]:
    """Cross-workload metrics for a record's ``derived`` block.

    Pure function of the timed entries (exposed for tests):

    * ``replicate_sweep_vectorized_speedup`` — serial over batch-engine
      median, the headline number of the vectorized engine;
    * ``twophase_beta_sweep_speedup`` — the same ratio for the scaling
      suite's DynamicMatrix2Phases β sweep (n = 12, p = 20, R = 256),
      pinning the two-phase kernels;
    * ``scaling_curve`` — one row per replicate count of the scaling
      suite, serial over vectorized;
    * ``lockstep_curve`` — one row per lockstep cell and replicate count
      (DynamicOuter and DynamicMatrix at R ∈ {2, 5, 10}), serial over
      vectorized.
    """

    def median_of(name: str) -> Optional[float]:
        entry = entries.get(name)
        return None if entry is None else float(entry["seconds"]["median"])

    derived: Dict[str, Any] = {}
    serial = median_of("replicate_sweep_serial")
    vec = median_of("replicate_sweep_vectorized")
    if serial is not None and vec is not None and vec > 0:
        derived["replicate_sweep_vectorized_speedup"] = serial / vec
    curve: List[Dict[str, Any]] = []
    for reps in (1, 4, 16, 64):
        s = median_of(f"scaling_reps{reps:02d}_serial")
        v = median_of(f"scaling_reps{reps:02d}_vectorized")
        if s is None or v is None:
            continue
        curve.append(
            {
                "reps": reps,
                "serial_s": s,
                "vectorized_s": v,
                "vectorized_speedup": s / v if v > 0 else None,
            }
        )
    if curve:
        derived["scaling_curve"] = curve
    lockstep: List[Dict[str, Any]] = []
    for label, strategy_name, _ in _LOCKSTEP_CELLS:
        for reps in _LOCKSTEP_REPS:
            s = median_of(f"lockstep_{label}_reps{reps:02d}_serial")
            v = median_of(f"lockstep_{label}_reps{reps:02d}_vectorized")
            if s is None or v is None:
                continue
            lockstep.append(
                {
                    "strategy": strategy_name,
                    "reps": reps,
                    "serial_s": s,
                    "vectorized_s": v,
                    "vectorized_speedup": s / v if v > 0 else None,
                }
            )
    if lockstep:
        derived["lockstep_curve"] = lockstep
    tp_serial = median_of("twophase_beta_sweep_serial")
    tp_vec = median_of("twophase_beta_sweep_vectorized")
    if tp_serial is not None and tp_vec is not None and tp_vec > 0:
        derived["twophase_beta_sweep_speedup"] = tp_serial / tp_vec
    return derived


def run_suite(
    suite: str = "default",
    *,
    seed: int = 0,
    repeats: int = 3,
    echo: Optional[Callable[[str], object]] = None,
    profile: bool = False,
) -> Dict[str, Any]:
    """Time every workload of *suite* and return the JSON-ready record.

    Each workload runs ``repeats`` times on the same seed (the work is
    deterministic per seed, so spread across repeats is timing noise); the
    record keeps the median, min and mean.  ``echo`` receives a progress
    line per workload when given.

    With ``profile=True`` every workload additionally runs with an enabled
    :class:`~repro.obs.profile.StageProfiler`; the record then carries a
    per-workload ``profile`` entry with the wall seconds spent in each
    stage, summed across the repeats.
    """
    repeats = check_positive_int("repeats", repeats)
    workloads = build_suite(suite)
    entries: Dict[str, Any] = {}
    for wl in workloads:
        times: List[float] = []
        prof = StageProfiler(enabled=profile)
        for _ in range(repeats):
            start = wall_time()
            wl.fn(seed, prof)
            times.append(wall_time() - start)
        entry: Dict[str, Any] = {
            "params": dict(wl.params),
            "repeats": repeats,
            "seconds": {
                "median": statistics.median(times),
                "min": min(times),
                "mean": statistics.fmean(times),
            },
        }
        if profile:
            entry["profile"] = prof.to_dict()
        entries[wl.name] = entry
        if echo is not None:
            echo(f"  {wl.name:34s} median {statistics.median(times):8.4f}s")
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "suite": suite,
        "seed": seed,
        "repeats": repeats,
        "profile": profile,
        "machine": _machine_info(),
        "workloads": entries,
    }
    derived = _derive_metrics(entries)
    if derived:
        record["derived"] = derived
    return record


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def compare_results(
    old: Dict[str, Any], new: Dict[str, Any], threshold: float = 0.2
) -> List[Dict[str, Any]]:
    """Per-workload comparison rows between two bench records.

    Each row has ``name``, ``status`` (``"regression"`` / ``"improved"`` /
    ``"ok"`` / ``"new"`` / ``"removed"``) and, where both medians exist,
    ``ratio`` (new over old).  A median more than ``threshold`` above the
    old one is a regression.
    """
    if not 0 < threshold:
        raise ValueError(f"threshold must be positive, got {threshold}")
    old_wl: Dict[str, Any] = old.get("workloads", {})
    new_wl: Dict[str, Any] = new.get("workloads", {})
    rows: List[Dict[str, Any]] = []
    for name, entry in new_wl.items():
        base = old_wl.get(name)
        if base is None:
            rows.append({"name": name, "status": "new"})
            continue
        old_med = float(base["seconds"]["median"])
        new_med = float(entry["seconds"]["median"])
        ratio = new_med / old_med if old_med > 0 else float("inf")
        if ratio > 1.0 + threshold:
            status = "regression"
        elif ratio < 1.0 - threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append(
            {
                "name": name,
                "status": status,
                "ratio": ratio,
                "old_median": old_med,
                "new_median": new_med,
            }
        )
    for name in old_wl:
        if name not in new_wl:
            rows.append({"name": name, "status": "removed"})
    return rows


def _render_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':28s} {'old':>10s} {'new':>10s} {'ratio':>7s}  status"]
    for row in rows:
        if "ratio" in row:
            lines.append(
                f"{row['name']:28s} {row['old_median']:9.4f}s {row['new_median']:9.4f}s"
                f" {row['ratio']:6.2f}x  {row['status']}"
            )
        else:
            lines.append(f"{row['name']:28s} {'-':>10s} {'-':>10s} {'-':>7s}  {row['status']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` argument parser (exposed for the docs tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the simulation engine and record/compare timings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workloads of each suite")

    run = sub.add_parser("run", help="time the suite and write a JSON record")
    run.add_argument("--quick", action="store_true", help="run the reduced CI suite")
    run.add_argument(
        "--suite",
        choices=SUITES,
        default=None,
        help="suite to run (overrides --quick; e.g. 'scaling' for the replicate-count sweep)",
    )
    run.add_argument("--repeats", type=int, default=3, help="timed repeats per workload (default: 3)")
    run.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    run.add_argument("--outdir", default="results", help="directory for BENCH_<timestamp>.json (default: results)")
    run.add_argument("--json", dest="json_path", default=None, help="exact output path (overrides --outdir)")
    run.add_argument(
        "--profile",
        action="store_true",
        help="record per-stage wall time for every workload into the JSON",
    )

    cmp_ = sub.add_parser("compare", help="compare two bench records")
    cmp_.add_argument("old", help="baseline JSON record")
    cmp_.add_argument("new", help="candidate JSON record")
    cmp_.add_argument("--threshold", type=float, default=0.2, help="relative regression threshold (default: 0.2)")
    cmp_.add_argument("--warn-only", action="store_true", help="report regressions but exit 0")
    return parser


def _load_record(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or record.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} record")
    return record


def _cmd_run(args: argparse.Namespace) -> int:
    suite = args.suite if args.suite else ("quick" if args.quick else "default")
    print(f"repro-bench: running suite '{suite}' ({args.repeats} repeats)")
    record = run_suite(
        suite, seed=args.seed, repeats=args.repeats, echo=print, profile=args.profile
    )
    if args.json_path:
        path = args.json_path
    else:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        os.makedirs(args.outdir, exist_ok=True)
        path = os.path.join(args.outdir, f"BENCH_{stamp}.json")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    derived = record.get("derived", {})
    if "replicate_sweep_vectorized_speedup" in derived:
        print(
            f"  replicate sweep speedup (vectorized): "
            f"{derived['replicate_sweep_vectorized_speedup']:.2f}x"
        )
    if "twophase_beta_sweep_speedup" in derived:
        print(
            f"  two-phase beta sweep speedup (vectorized): "
            f"{derived['twophase_beta_sweep_speedup']:.2f}x"
        )
    print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    old = _load_record(args.old)
    new = _load_record(args.new)
    if old.get("suite") != new.get("suite"):
        print(
            f"warning: comparing different suites ({old.get('suite')} vs {new.get('suite')})",
            file=sys.stderr,
        )
    if old.get("machine") != new.get("machine"):
        print("warning: records come from different machines; timings may not be comparable",
              file=sys.stderr)
    rows = compare_results(old, new, threshold=args.threshold)
    print(_render_rows(rows))
    old_vec = old.get("derived", {}).get("replicate_sweep_vectorized_speedup")
    new_vec = new.get("derived", {}).get("replicate_sweep_vectorized_speedup")
    if old_vec is not None or new_vec is not None:

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.2f}x"

        print(f"vectorized-vs-serial speedup: old {fmt(old_vec)}, new {fmt(new_vec)}")
    regressions = [r for r in rows if r["status"] == "regression"]
    if regressions:
        names = ", ".join(r["name"] for r in regressions)
        print(f"regressions (> {100 * args.threshold:.0f}% over baseline): {names}", file=sys.stderr)
        return 0 if args.warn_only else 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-bench``; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for suite in SUITES:
            print(f"suite '{suite}':")
            for wl in build_suite(suite):
                params = ", ".join(f"{k}={v}" for k, v in sorted(wl.params.items()))
                print(f"  {wl.name:34s} {params}")
        return 0
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_compare(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
